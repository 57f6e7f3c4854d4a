//! End-to-end maintenance → serving pin: a `crr-stream` repair must
//! produce an artifact that passes the `crr-analyze` admission gate,
//! hot-swaps into a live server over `/admin/swap`, and then serves
//! `/v1/predict` and `/v1/check` answers **byte-identical** to offline
//! evaluation and checking of the repaired rules — the last step of the
//! streaming maintenance contract (DESIGN.md §13).

// Test harness: panicking on malformed fixtures is the failure mode we want.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use crr_data::{Table, Value};
use crr_datasets::{electricity, GenConfig};
use crr_discovery::{DiscoveryConfig, DiscoverySession, PredicateGen};
use crr_obs::json;
use crr_serve::client::{predictions_field, roundtrip, rows_body, strip_repair_guards};
use crr_serve::{RuleStore, ServeConfig, Server};
use crr_stream::{StreamConfig, StreamEngine};
use std::sync::Arc;

#[test]
fn repaired_artifact_swaps_in_and_serves_identical_answers() {
    // Yesterday's relation: electricity@2880 (two generator days), with
    // rules discovered on it standing in a maintainer.
    let ds = electricity(&GenConfig {
        rows: 3_168,
        seed: 7,
    });
    let t = ds.table;
    let minute = t.attr("minute").unwrap();
    let target = t.attr("global_active_power").unwrap();
    let space = PredicateGen::binary(64).generate(&t, &[minute], target, 0);
    let cfg = DiscoveryConfig::new(vec![minute], target, 0.25);
    let mut base = Table::new(t.schema().clone());
    for r in 0..2_880 {
        base.push_row(t.row(r)).unwrap();
    }
    let (_, base_artifact) = DiscoverySession::on(&base)
        .predicates(space.clone())
        .config(cfg.clone())
        .export()
        .unwrap();
    let mut engine = StreamEngine::new(
        base,
        base_artifact.rules.clone(),
        cfg,
        space,
        StreamConfig::default(),
    )
    .unwrap();

    // Today's appends arrive under a regime change — the generator's tail
    // with the target rescaled — so covered rows trip the write-time
    // monitor and flag their rules for repair.
    let ty = target.0;
    let tail: Vec<Vec<Value>> = (2_880..t.num_rows())
        .map(|r| {
            let mut row = t.row(r);
            if let Value::Float(y) = row[ty] {
                row[ty] = Value::Float(3.0 * y + 5.0);
            }
            row
        })
        .collect();
    engine.append(&tail).unwrap();
    assert!(engine.needs_repair(), "regime change must surface as drift");
    let repair = engine.repair().unwrap();
    assert_eq!(
        repair.residual_violations, 0,
        "repair must clean what it touched"
    );
    let artifact = repair.artifact.clone();

    // Gate 1: the repaired artifact is proof-carrying and passes the
    // full verifier battery (A1–A7), including the repair audit.
    let repair_ob = artifact
        .repair
        .as_ref()
        .expect("a stream repair must bundle its obligations");
    assert!(
        !repair_ob.regions.is_empty(),
        "drift produced repaired rules, so regions must be claimed"
    );
    let analysis = crr_analyze::analyze_artifact_on(&artifact, engine.table());
    assert!(analysis.is_sound(), "{analysis:?}");
    assert!(analysis.counters.repair_regions >= 1);

    // The probe of Gates 3 and 4: rows spanning base and repaired regions.
    let probe_rows: Vec<usize> = (0..engine.table().num_rows()).step_by(24).collect();
    let rows: Vec<Vec<Value>> = probe_rows.iter().map(|&r| engine.table().row(r)).collect();
    let (body, probe) = request(engine.table(), &rows);

    // Gate 2: a server standing on the base artifact admits the repair.
    let store = Arc::new(RuleStore::open(base_artifact, crr_obs::MetricsSink::disabled()).unwrap());
    let server = Server::start(Arc::clone(&store), ServeConfig::default()).unwrap();
    let addr = server.addr();
    // Read the base set first, so the plan it serves from exists before
    // the swap: answers after it must come from the repaired set's own.
    let (status, _) = roundtrip(addr, "POST", "/v1/predict", &body).unwrap();
    assert_eq!(status, 200);
    let (status, _) = roundtrip(addr, "POST", "/admin/swap", &artifact.to_text()).unwrap();
    assert_eq!(status, 200, "sound repaired artifact must be admitted");
    assert_eq!(store.generation(), 1);

    // Gate 2b: the same splice with its repaired rules' guards stripped —
    // every repaired conjunct widened to unconditional coverage — must be
    // bounced by the swap gate's A7 audit with a 422, leaving the honest
    // repair serving.
    let mutated = strip_repair_guards(&artifact)
        .expect("fixture too weak: no repaired rule, or a guard-free region");
    let (status, resp) = roundtrip(addr, "POST", "/admin/swap", &mutated.to_text()).unwrap();
    assert_eq!(status, 422, "stripped repair guard must be refused: {resp}");
    assert!(resp.contains("unsound"), "{resp}");
    assert_eq!(store.generation(), 1, "the honest repair keeps serving");

    // Gate 3: served answers are byte-identical to offline evaluation of
    // the repaired rules on a probe spanning base and repaired regions.
    let offline: Vec<Option<f64>> = (0..probe.num_rows())
        .map(|row| artifact.rules.predict(&probe, row))
        .collect();
    let answered = offline.iter().flatten().count();
    let expected = predictions_field(&offline);
    assert!(
        answered * 2 >= probe.num_rows(),
        "fixture too weak: offline covers {answered}/{}",
        probe.num_rows()
    );
    let (status, resp) = roundtrip(addr, "POST", "/v1/predict", &body).unwrap();
    assert_eq!(status, 200, "{resp}");
    assert!(
        resp.contains(&expected),
        "served answers diverged from offline evaluation after the swap"
    );

    // Gate 4: served checks equal `crr_core::check` of the repaired rules
    // on the probe with every 7th target raised by 10 and every 11th
    // minute nulled, so violations and uncovered rows both occur.
    let perturbed: Vec<Vec<Value>> = rows
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let mut row = row.clone();
            if let (0, Value::Float(y)) = (i % 7, &row[target.0]) {
                row[target.0] = Value::Float(y + 10.0);
            }
            if i % 11 == 0 {
                row[minute.0] = Value::Null;
            }
            row
        })
        .collect();
    let (body, probe) = request(engine.table(), &perturbed);
    let report = crr_core::check(&artifact.rules, &probe, &probe.all_rows());
    assert!(
        report.violations.len() >= 5 && report.uncovered >= 1,
        "fixture too weak: {} violations, {} uncovered rows",
        report.violations.len(),
        report.uncovered
    );
    let violations: Vec<String> = report
        .violations
        .iter()
        .map(|v| {
            format!(
                "{{\"row\": {}, \"rule\": {}, \"actual\": {}, \"predicted\": {}, \"deviation\": {}}}",
                v.row,
                v.rule,
                json::num(v.actual),
                json::num(v.predicted),
                json::num(v.deviation)
            )
        })
        .collect();
    let expected = format!(
        "\"checked\": {}, \"uncovered\": {}, \"violations\": [{}]}}",
        report.checked,
        report.uncovered,
        violations.join(", ")
    );
    let (status, resp) = roundtrip(addr, "POST", "/v1/check", &body).unwrap();
    server.shutdown();
    assert_eq!(status, 200, "{resp}");
    assert!(
        resp.ends_with(&expected),
        "served checks diverged from offline checking:\n{resp}\nwant ...{expected}"
    );
}

/// A `/v1/*` request body carrying `rows`, and the same rows as a table
/// over `like`'s schema.
fn request(like: &Table, rows: &[Vec<Value>]) -> (String, Table) {
    let mut table = Table::new(like.schema().clone());
    for row in rows {
        table.push_row(row.clone()).unwrap();
    }
    (rows_body(rows), table)
}
