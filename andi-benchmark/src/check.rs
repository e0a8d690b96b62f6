//! Correctness of what the service and the recipe path answered.
//!
//! The closed loop only classifies each response cheaply (status,
//! rung, trips); the stored bodies are checked against in-process
//! references after the timed window, so the checks never compete
//! with the server for the machine's cores.

use andi_core::recipe::{ladder_crack_probabilities, RecipeConfig};
use andi_core::report::Rung;
use andi_graph::exact::crack_probabilities;
use andi_graph::par::Budget;
use andi_graph::GroupedBigraph;
use andi_oracle::instance::Instance;
use andi_oracle::serial::{error_to_json, Json};

/// Largest domain whose answer is also checked against the
/// independent Ryser kernel.
const RYSER_CHECK_N: usize = 18;

fn parse(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not utf-8".to_string())?;
    Json::parse(text).map_err(|e| format!("body is not JSON: {e}"))
}

fn num<T: std::str::FromStr>(v: Option<&Json>, what: &str) -> Result<T, String> {
    v.and_then(Json::as_num)
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| format!("missing or bad {what}"))
}

fn kind(v: Option<&Json>) -> Option<&str> {
    v?.get("kind")?.as_str()
}

/// Checks a `POST /assess` body: its `probs` must be bit-identical to
/// `ladder_crack_probabilities` run here on the same instance (no
/// deadline, `threads` workers), its provenance must name the same
/// rung and trips, and for `n <= 18` the expected cracks must match
/// the Ryser kernel within 1e-9.
pub fn check_assess(instance: &Instance, body: &[u8], threads: usize) -> Result<(), String> {
    let doc = parse(body)?;
    let n: usize = num(doc.get("n"), "n")?;
    if n != instance.n() {
        return Err(format!("n = {n}, the instance has {}", instance.n()));
    }
    let probs = match doc.get("probs") {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|v| num::<f64>(Some(v), "probability"))
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err("missing probs".into()),
    };
    let graph = GroupedBigraph::new(&instance.supports, instance.m, &instance.intervals);
    let (provenance, want) = ladder_crack_probabilities(
        &graph,
        &RecipeConfig::default(),
        threads,
        &Budget::unlimited(),
    )
    .map_err(|e| format!("the in-process ladder failed: {e}"))?;
    if probs.len() != want.len() {
        return Err(format!("{} probs for {} items", probs.len(), want.len()));
    }
    if let Some(x) = (0..want.len()).find(|&x| probs[x].to_bits() != want[x].to_bits()) {
        return Err(format!(
            "probs[{x}] = {} but the in-process ladder gives {}",
            probs[x], want[x]
        ));
    }

    let prov = doc.get("provenance");
    let rung = prov.and_then(|p| p.get("rung")).and_then(Json::as_str);
    if rung != Some(provenance.rung.to_string().as_str()) {
        return Err(format!("rung {rung:?}, expected {}", provenance.rung));
    }
    let trips = match prov.and_then(|p| p.get("trips")) {
        Some(Json::Arr(items)) => items,
        _ => return Err("missing provenance trips".into()),
    };
    let want_kinds: Vec<String> = provenance
        .trips
        .iter()
        .map(|(_, e)| {
            let text = error_to_json(e);
            let parsed = Json::parse(&text).expect("error_to_json renders JSON");
            kind(Some(&parsed)).unwrap_or_default().to_string()
        })
        .collect();
    let got_kinds: Vec<&str> = trips
        .iter()
        .map(|t| kind(t.get("error")).unwrap_or_default())
        .collect();
    if got_kinds != want_kinds {
        return Err(format!("trips {got_kinds:?}, expected {want_kinds:?}"));
    }

    if n <= RYSER_CHECK_N {
        let ryser = crack_probabilities(&graph.to_dense())
            .ok_or("Ryser finds no perfect matching for an answered instance")?;
        let (got, exact): (f64, f64) = (probs.iter().sum(), ryser.iter().sum());
        if (got - exact).abs() > 1e-9 {
            return Err(format!("expected cracks {got} but Ryser gives {exact}"));
        }
    }
    Ok(())
}

/// Checks a `POST /update` body reports `edits` applied edits.
pub fn check_update(body: &[u8], edits: usize) -> Result<(), String> {
    let doc = parse(body)?;
    if kind(Some(&doc)) != Some("updated") {
        return Err("update body is not of kind \"updated\"".into());
    }
    let got: usize = num(doc.get("edits"), "edits")?;
    if got != edits {
        return Err(format!("{got} edits applied, {edits} sent"));
    }
    Ok(())
}

fn count(hay: &[u8], needle: &[u8]) -> usize {
    hay.windows(needle.len()).filter(|w| *w == needle).count()
}

/// What the closed loop reads off an `/assess` body without parsing
/// it: the answering rung, the number of trips, and whether a trip is
/// a failure (deadline, cancellation or panic).
pub struct Classified {
    pub rung: Option<Rung>,
    pub trips: usize,
    pub failed_trip: bool,
}

pub fn classify(body: &[u8]) -> Classified {
    const RUNG: &[u8] = b"\"provenance\":{\"rung\":\"";
    let rung = body
        .windows(RUNG.len())
        .position(|w| w == RUNG)
        .and_then(|at| {
            let rest = &body[at + RUNG.len()..];
            [Rung::Exact, Rung::Sampler, Rung::OEstimate]
                .into_iter()
                .find(|r| rest.starts_with(r.to_string().as_bytes()))
        });
    let failed_trip = [
        &b"\"kind\":\"budget-exceeded\""[..],
        b"\"kind\":\"cancelled\"",
        b"\"kind\":\"worker-panic\"",
    ]
    .iter()
    .any(|k| count(body, k) > 0);
    Classified {
        rung,
        // The provenance object opens with `{"rung":"` too.
        trips: count(body, b"{\"rung\":\"").saturating_sub(1),
        failed_trip,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use andi_oracle::instance::Regime;
    use andi_serve::{start, Client, ServeConfig};

    fn instance() -> Instance {
        Instance {
            label: "check test".into(),
            regime: Regime::PointCompliant,
            supports: vec![5, 4, 5, 5, 3, 5, 9, 2],
            m: 10,
            intervals: vec![
                (0.4, 0.6),
                (0.3, 0.5),
                (0.45, 0.55),
                (0.5, 0.5),
                (0.2, 0.4),
                (0.4, 0.7),
                (0.8, 1.0),
                (0.1, 0.3),
            ],
            mask: None,
        }
    }

    fn served_body(inst: &Instance) -> Vec<u8> {
        let server = start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .expect("server starts");
        let mut client = Client::connect(server.addr()).expect("connects");
        let resp = client
            .request("POST", "/assess", inst.to_text().as_bytes())
            .expect("answered");
        drop(client);
        server.shutdown();
        assert_eq!(resp.status, 200);
        resp.body
    }

    #[test]
    fn accepts_the_served_body_and_rejects_one_tampered_probability() {
        let inst = instance();
        let body = served_body(&inst);
        check_assess(&inst, &body, 1).expect("the served body is right");
        let c = classify(&body);
        assert_eq!(
            (c.rung, c.trips, c.failed_trip),
            (Some(Rung::Exact), 0, false)
        );

        let text = String::from_utf8(body).unwrap();
        let at = text.find("\"probs\":[").unwrap() + "\"probs\":[".len();
        let end = at + text[at..].find([',', ']']).unwrap();
        let p: f64 = text[at..end].parse().unwrap();
        let nudged = f64::from_bits(p.to_bits() + 1);
        let tampered = format!("{}{nudged}{}", &text[..at], &text[end..]);
        let err = check_assess(&inst, tampered.as_bytes(), 1).unwrap_err();
        assert!(err.contains("probs[0]"), "{err}");

        let wrong_instance = Instance {
            m: 11,
            ..inst.clone()
        };
        assert!(check_assess(&wrong_instance, text.as_bytes(), 1).is_err());
    }

    #[test]
    fn classifies_failed_trips_and_checks_updates() {
        let body = br#"{"n":2,"provenance":{"rung":"o-estimate","degraded":true,"trips":[{"rung":"exact-permanent","error":{"kind":"budget-exceeded","budget_ms":5}},{"rung":"matching-sampler","error":{"kind":"cancelled"}}]}}"#;
        let c = classify(body);
        assert_eq!(
            (c.rung, c.trips, c.failed_trip),
            (Some(Rung::OEstimate), 2, true)
        );
        let update = br#"{"kind":"updated","edits":2,"old_db":"00","new_db":"01"}"#;
        assert!(check_update(update, 2).is_ok());
        assert!(check_update(update, 3).is_err());
    }
}
