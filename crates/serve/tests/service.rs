//! End-to-end service behavior: routing, assessment, caching
//! headers, admission shedding, and graceful drain.

use andi_data::{Analog, FrequencyGroups};
use andi_oracle::instance::{Instance, Regime};
use andi_oracle::serial::provenance_from_json;
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

#[test]
fn health_stats_and_unknown_routes() {
    let handle = start(ServeConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let health = client.request("GET", "/health", b"").unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(std::str::from_utf8(&health.body).unwrap(), "{\"ok\":true}");

    let stats = client.request("GET", "/stats", b"").unwrap();
    assert_eq!(stats.status, 200);
    let text = std::str::from_utf8(&stats.body).unwrap();
    for field in [
        "\"accepted\":",
        "\"shed\":",
        "\"result_cache\":",
        "\"scaffold_cache\":",
        "\"joins\":",
        "\"hits\":",
    ] {
        assert!(text.contains(field), "stats JSON missing {field}: {text}");
    }

    let missing = client.request("GET", "/nope", b"").unwrap();
    assert_eq!(missing.status, 404);
    let wrong_method = client.request("GET", "/assess", b"").unwrap();
    assert_eq!(wrong_method.status, 405);

    handle.shutdown();
}

#[test]
fn assess_answers_with_ladder_result_and_cache_is_bit_identical() {
    let handle = start(ServeConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let body = bigmart_instance().to_text();

    let cold = client.request("POST", "/assess", body.as_bytes()).unwrap();
    assert_eq!(
        cold.status,
        200,
        "body: {}",
        String::from_utf8_lossy(&cold.body)
    );
    assert_eq!(response_header(&cold, "x-andi-cache"), Some("miss"));
    assert!(response_header(&cold, "x-andi-spent-ms").is_some());
    let text = std::str::from_utf8(&cold.body).unwrap();
    assert!(text.contains("\"n\":6"), "{text}");
    assert!(text.contains("\"expected_cracks\":1.8125"), "{text}");
    assert!(text.contains("\"spent_ms\":0"), "{text}");

    // Extract and re-parse the provenance object via the oracle's
    // serializer: the service speaks the committed format.
    let start_ix = text.find("\"provenance\":").unwrap() + "\"provenance\":".len();
    let rest = &text[start_ix..];
    let end_ix = rest.find(",\"probs\"").unwrap();
    let prov = provenance_from_json(&rest[..end_ix]).unwrap();
    assert!(prov.trips.is_empty());
    assert!(!prov.degraded);

    let hit = client.request("POST", "/assess", body.as_bytes()).unwrap();
    assert_eq!(hit.status, 200);
    assert_eq!(response_header(&hit, "x-andi-cache"), Some("hit"));
    assert_eq!(cold.body, hit.body, "cache hit must be bit-identical");

    // Same database, different belief: a result of its own (no
    // `/update` warmed this database, so it builds its own scaffold).
    let mut other = bigmart_instance();
    other.intervals = vec![(0.0, 1.0); 6];
    let second = client
        .request("POST", "/assess", other.to_text().as_bytes())
        .unwrap();
    assert_eq!(second.status, 200);
    assert_eq!(response_header(&second, "x-andi-cache"), Some("miss"));
    assert_ne!(cold.body, second.body);

    let stats = client.request("GET", "/stats", b"").unwrap();
    let stats_text = std::str::from_utf8(&stats.body).unwrap();
    assert!(
        stats_text.contains("\"result_cache\":{\"hits\":1"),
        "expected one result-cache hit: {stats_text}"
    );

    handle.shutdown();
}

/// CHESS under its `δ_med` belief `[f - δ, f + δ]`: the recipe's
/// step-5 hacker, and the benchmark's unwidened analog request.
fn chess_delta_med_instance() -> Instance {
    let analog = Analog::Chess;
    let supports = analog.supports();
    let m = analog.spec().n_transactions;
    let delta = FrequencyGroups::from_supports(&supports, m)
        .median_gap()
        .unwrap_or(0.0);
    let intervals = supports
        .iter()
        .map(|&s| {
            let f = s as f64 / m as f64;
            ((f - delta).max(0.0), (f + delta).min(1.0))
        })
        .collect();
    Instance {
        label: "analog chess delta_med".to_string(),
        regime: Regime::AlphaCompliant,
        supports,
        m,
        intervals,
        mask: None,
    }
}

/// The served `/assess` bytes are pinned, not just their values: the
/// body is written without an intermediate `String` per number, and
/// these goldens hold it to the bytes the `Vec<String>` + `join`
/// renderer produced (recorded before that rewrite). The request
/// bytes are pinned too, since `Instance::to_text` is written the
/// same way.
#[test]
fn assess_bodies_match_their_goldens() {
    let handle = start(ServeConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let cases = [
        (
            bigmart_instance(),
            include_str!("golden/bigmart.request"),
            include_str!("golden/bigmart.assess.json"),
        ),
        (
            chess_delta_med_instance(),
            include_str!("golden/chess_delta_med.request"),
            include_str!("golden/chess_delta_med.assess.json"),
        ),
    ];
    for (instance, request, answer) in cases {
        let text = instance.to_text();
        assert_eq!(text, request, "{}: request bytes moved", instance.label);
        let resp = client.request("POST", "/assess", text.as_bytes()).unwrap();
        assert_eq!(resp.status, 200, "{}", instance.label);
        let body = std::str::from_utf8(&resp.body).unwrap();
        assert_eq!(body, answer, "{}: /assess body bytes moved", instance.label);
    }
    handle.shutdown();
}

#[test]
fn invalid_instances_get_structured_400s() {
    let handle = start(ServeConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    // Junk body.
    let resp = client
        .request("POST", "/assess", b"not an instance")
        .unwrap();
    assert_eq!(resp.status, 400);
    assert!(std::str::from_utf8(&resp.body)
        .unwrap()
        .contains("\"kind\":\"invalid-instance\""));

    // Structurally invalid: support exceeds m.
    let mut bad = bigmart_instance();
    bad.supports[0] = 99;
    let resp = client
        .request("POST", "/assess", bad.to_text().as_bytes())
        .unwrap();
    assert_eq!(resp.status, 400);

    // Empty mapping space: disjoint point beliefs.
    let empty = Instance {
        label: "empty".to_string(),
        regime: Regime::Adversarial,
        supports: vec![4, 8],
        m: 10,
        intervals: vec![(0.4, 0.4), (0.4, 0.4)],
        mask: None,
    };
    let resp = client
        .request("POST", "/assess", empty.to_text().as_bytes())
        .unwrap();
    assert_eq!(resp.status, 422);
    assert!(std::str::from_utf8(&resp.body)
        .unwrap()
        .contains("empty-mapping-space"));

    handle.shutdown();
}

#[test]
fn zero_capacity_queue_sheds_with_retry_after() {
    let cfg = ServeConfig {
        queue_cap: 0,
        ..ServeConfig::default()
    };
    let handle = start(cfg).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let resp = client.request("GET", "/health", b"").unwrap();
    assert_eq!(resp.status, 429);
    let retry = response_header(&resp, "retry-after").unwrap();
    assert!(retry.parse::<u64>().unwrap() >= 1);
    assert!(std::str::from_utf8(&resp.body)
        .unwrap()
        .contains("\"kind\":\"overloaded\""));
    handle.shutdown();
}

#[test]
fn shutdown_drains_cleanly_with_idle_keepalive_connections() {
    let handle = start(ServeConfig::default()).unwrap();
    // Open idle keep-alive connections and one that completed a
    // request; drain must not hang on any of them.
    let _idle1 = Client::connect(handle.addr()).unwrap();
    let _idle2 = Client::connect(handle.addr()).unwrap();
    let mut active = Client::connect(handle.addr()).unwrap();
    let resp = active.request("GET", "/health", b"").unwrap();
    assert_eq!(resp.status, 200);
    handle.shutdown();
}
