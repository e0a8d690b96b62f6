//! `POST /update`: delta application and exact cache invalidation.

use andi_core::summary_fingerprint;
use andi_oracle::instance::{Instance, Regime};
use andi_serve::http::response_header;
use andi_serve::{start, Client, ServeConfig};

fn bigmart_instance() -> Instance {
    Instance {
        label: "paper:bigmart-h".to_string(),
        regime: Regime::Ignorant,
        supports: vec![5, 4, 5, 5, 3, 5],
        m: 10,
        intervals: vec![
            (0.0, 1.0),
            (0.4, 0.5),
            (0.5, 0.5),
            (0.4, 0.6),
            (0.1, 0.4),
            (0.5, 0.5),
        ],
        mask: None,
    }
}

fn update_body(m: u64, supports: &[u64], edits: &[&str]) -> String {
    let words: Vec<String> = supports.iter().map(u64::to_string).collect();
    let mut body = format!(
        "andi-serve update v1\nm: {m}\nsupports: {}\n",
        words.join(" ")
    );
    for edit in edits {
        body.push_str(&format!("edit: {edit}\n"));
    }
    body
}

/// The 16-hex-digit fingerprint a `/update` body reports under `field`.
fn fingerprint_field(body: &str, field: &str) -> u64 {
    let key = format!("\"{field}\":\"");
    let start = body
        .find(&key)
        .unwrap_or_else(|| panic!("{field} missing: {body}"))
        + key.len();
    u64::from_str_radix(&body[start..start + 16], 16).unwrap()
}

#[test]
fn update_invalidates_exactly_the_affected_entries() {
    let handle = start(ServeConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let instance = bigmart_instance();
    let body = instance.to_text();

    // An unrelated database whose cache entry must survive the update.
    let mut other = bigmart_instance();
    other.supports = vec![7, 2, 7, 7, 1, 7];
    other.intervals = vec![(0.0, 1.0); 6];
    let other_body = other.to_text();

    let cold = client.request("POST", "/assess", body.as_bytes()).unwrap();
    assert_eq!(cold.status, 200, "{}", String::from_utf8_lossy(&cold.body));
    assert_eq!(response_header(&cold, "x-andi-cache"), Some("miss"));
    let other_cold = client
        .request("POST", "/assess", other_body.as_bytes())
        .unwrap();
    assert_eq!(other_cold.status, 200);

    let hit = client.request("POST", "/assess", body.as_bytes()).unwrap();
    assert_eq!(response_header(&hit, "x-andi-cache"), Some("hit"));

    // Append one transaction {1, 4} to the bigmart database.
    let upd = update_body(instance.m, &instance.supports, &["insert 1 4"]);
    let resp = client.request("POST", "/update", upd.as_bytes()).unwrap();
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    let text = std::str::from_utf8(&resp.body).unwrap();
    assert!(text.contains("\"kind\":\"updated\""), "{text}");
    assert!(text.contains("\"edits\":1"), "{text}");
    // Only `/update` writes the scaffold cache, and no `/update` has
    // warmed this database: `/assess` alone leaves nothing to drop.
    assert!(text.contains("\"scaffold_invalidated\":false"), "{text}");
    assert!(text.contains("\"results_invalidated\":1"), "{text}");
    assert!(text.contains("\"warmed\":true"), "{text}");
    // The reported keys are the summary fingerprints before and after
    // the edit.
    assert_eq!(
        fingerprint_field(text, "old_db"),
        summary_fingerprint(&instance.supports, instance.m)
    );
    assert_eq!(
        fingerprint_field(text, "new_db"),
        summary_fingerprint(&[5, 5, 5, 5, 4, 5], 11)
    );

    // The stale result for the pre-edit database can never be
    // served: the same request now recomputes (miss, not hit) — and,
    // being content-addressed, reproduces the same bytes.
    let recomputed = client.request("POST", "/assess", body.as_bytes()).unwrap();
    assert_eq!(recomputed.status, 200);
    assert_eq!(response_header(&recomputed, "x-andi-cache"), Some("miss"));
    assert_eq!(cold.body, recomputed.body);

    // The unrelated database's entry was untouched.
    let other_hit = client
        .request("POST", "/assess", other_body.as_bytes())
        .unwrap();
    assert_eq!(response_header(&other_hit, "x-andi-cache"), Some("hit"));
    assert_eq!(other_cold.body, other_hit.body);

    // The post-edit database was warmed: its first assessment reuses
    // the scaffold the update built (scaffold-cache hit).
    let stats_before = client.request("GET", "/stats", b"").unwrap();
    let before = std::str::from_utf8(&stats_before.body).unwrap().to_string();
    let mut edited = bigmart_instance();
    edited.supports = vec![5, 5, 5, 5, 4, 5];
    edited.m = 11;
    edited.intervals = vec![(0.0, 1.0); 6];
    let edited_resp = client
        .request("POST", "/assess", edited.to_text().as_bytes())
        .unwrap();
    assert_eq!(edited_resp.status, 200);
    let stats_after = client.request("GET", "/stats", b"").unwrap();
    let after = std::str::from_utf8(&stats_after.body).unwrap().to_string();
    let hits = |s: &str| {
        let ix = s.find("\"scaffold_cache\":").unwrap();
        let rest = &s[ix..];
        let h = rest.find("\"hits\":").unwrap() + "\"hits\":".len();
        rest[h..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse::<u64>()
            .unwrap()
    };
    assert!(
        hits(&after) > hits(&before),
        "warmed scaffold not reused: before {before} after {after}"
    );
    assert!(
        after.contains("\"invalidations\":1"),
        "result-cache invalidation count missing: {after}"
    );

    // Editing the database the first update warmed drops that
    // scaffold, and the one result assessed against it.
    let upd = update_body(edited.m, &edited.supports, &["insert 0"]);
    let resp = client.request("POST", "/update", upd.as_bytes()).unwrap();
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    let text = std::str::from_utf8(&resp.body).unwrap();
    assert!(text.contains("\"scaffold_invalidated\":true"), "{text}");
    assert!(text.contains("\"results_invalidated\":1"), "{text}");
    assert!(text.contains("\"warmed\":true"), "{text}");

    // With its result and warmed scaffold gone, the same belief
    // recomputes on a scaffold built for the request, to the bytes
    // the warmed scaffold gave.
    let rebuilt = client
        .request("POST", "/assess", edited.to_text().as_bytes())
        .unwrap();
    assert_eq!(response_header(&rebuilt, "x-andi-cache"), Some("miss"));
    assert_eq!(rebuilt.body, edited_resp.body);

    handle.shutdown();
}

/// `count` beliefs over `base`'s database: belief `t` pins item `t` to
/// its observed frequency and leaves the rest unconstrained, so each
/// one is answerable, cacheable and distinct.
fn beliefs(base: &Instance, count: usize) -> Vec<String> {
    (0..count)
        .map(|t| {
            let mut belief = base.clone();
            let f = base.supports[t] as f64 / base.m as f64;
            belief.intervals = vec![(0.0, 1.0); base.supports.len()];
            belief.intervals[t] = (f, f);
            belief.to_text()
        })
        .collect()
}

/// One `/assess`: its cache outcome and body.
fn assess(client: &mut Client, body: &str) -> (String, Vec<u8>) {
    let resp = client.request("POST", "/assess", body.as_bytes()).unwrap();
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    let outcome = response_header(&resp, "x-andi-cache").unwrap().to_string();
    (outcome, resp.body)
}

#[test]
fn update_drops_every_result_of_the_edited_database_and_no_other() {
    let handle = start(ServeConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let a = bigmart_instance();
    let mut b = bigmart_instance();
    b.supports = vec![7, 2, 7, 7, 1, 7];
    let (a_beliefs, b_beliefs) = (beliefs(&a, 4), beliefs(&b, 3));

    let a_cold: Vec<_> = a_beliefs.iter().map(|q| assess(&mut client, q)).collect();
    let b_cold: Vec<_> = b_beliefs.iter().map(|q| assess(&mut client, q)).collect();
    for (outcome, _) in a_cold.iter().chain(&b_cold) {
        assert_eq!(outcome, "miss");
    }

    let upd = update_body(a.m, &a.supports, &["insert 1 4"]);
    let resp = client.request("POST", "/update", upd.as_bytes()).unwrap();
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    let text = std::str::from_utf8(&resp.body).unwrap();
    let want = format!("\"results_invalidated\":{}", a_beliefs.len());
    assert!(text.contains(&want), "{text}");
    for (belief, (_, cold)) in b_beliefs.iter().zip(&b_cold) {
        let (outcome, body) = assess(&mut client, belief);
        assert_eq!(outcome, "hit", "a belief over the untouched database");
        assert_eq!(&body, cold);
    }
    for (belief, (_, cold)) in a_beliefs.iter().zip(&a_cold) {
        let (outcome, body) = assess(&mut client, belief);
        assert_eq!(outcome, "miss", "a belief over the edited database");
        assert_eq!(&body, cold);
    }
    handle.shutdown();
}

#[test]
fn update_validates_body_and_edits() {
    let handle = start(ServeConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    // Bad header.
    let resp = client.request("POST", "/update", b"wrong header").unwrap();
    assert_eq!(resp.status, 400);
    assert!(std::str::from_utf8(&resp.body)
        .unwrap()
        .contains("invalid-update"));

    // Missing supports.
    let resp = client
        .request("POST", "/update", b"andi-serve update v1\nm: 5\n")
        .unwrap();
    assert_eq!(resp.status, 400);

    // Support exceeding m.
    let resp = client
        .request(
            "POST",
            "/update",
            b"andi-serve update v1\nm: 5\nsupports: 9\nedit: insert 0\n",
        )
        .unwrap();
    assert_eq!(resp.status, 400);

    // Unknown edit verb.
    let resp = client
        .request(
            "POST",
            "/update",
            b"andi-serve update v1\nm: 5\nsupports: 3 2\nedit: explode 0\n",
        )
        .unwrap();
    assert_eq!(resp.status, 400);

    // Structurally valid body, inapplicable edit (deleting a
    // transaction not naming the full-support item).
    let resp = client
        .request(
            "POST",
            "/update",
            b"andi-serve update v1\nm: 3\nsupports: 3 1\nedit: delete 1\n",
        )
        .unwrap();
    assert_eq!(resp.status, 400, "{}", String::from_utf8_lossy(&resp.body));

    // Wrong method.
    let resp = client.request("GET", "/update", b"").unwrap();
    assert_eq!(resp.status, 405);

    handle.shutdown();
}

#[test]
fn update_with_no_prior_traffic_is_a_clean_noop_invalidation() {
    let handle = start(ServeConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let body = update_body(10, &[5, 4, 5, 5, 3, 5], &["replace 1 / 4", "insert 0 2"]);
    let resp = client.request("POST", "/update", body.as_bytes()).unwrap();
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    let text = std::str::from_utf8(&resp.body).unwrap();
    assert!(text.contains("\"edits\":2"), "{text}");
    assert!(text.contains("\"scaffold_invalidated\":false"), "{text}");
    assert!(text.contains("\"results_invalidated\":0"), "{text}");
    assert!(text.contains("\"warmed\":true"), "{text}");
    assert_eq!(
        fingerprint_field(text, "old_db"),
        summary_fingerprint(&[5, 4, 5, 5, 3, 5], 10)
    );
    assert_eq!(
        fingerprint_field(text, "new_db"),
        summary_fingerprint(&[6, 3, 6, 5, 4, 5], 11)
    );
    handle.shutdown();
}
