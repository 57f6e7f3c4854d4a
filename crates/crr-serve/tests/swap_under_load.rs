//! Swap-under-load pin on the paper's electricity workload at 11 520
//! rows: while hot swaps (accepted and rejected) churn the store, every
//! concurrent `/v1/predict` answer must stay **byte-identical** to the
//! offline evaluation of the same rule set over the same probe rows —
//! serving adds availability machinery, never different answers.

// Test harness: panicking on malformed fixtures is the failure mode we want.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use crr_data::Table;
use crr_datasets::{electricity, GenConfig};
use crr_discovery::{DiscoveryConfig, DiscoverySession, PredicateGen, RuleSetArtifact};
use crr_obs::MetricsSink;
use crr_serve::client::{predictions_field, roundtrip, rows_body};
use crr_serve::{RuleStore, ServeConfig, Server};
use std::sync::Arc;

#[test]
fn predictions_stay_byte_identical_to_offline_while_swaps_churn() {
    // Discover on electricity@11520, the sharded-equivalence fixture.
    let ds = electricity(&GenConfig {
        rows: 11_520,
        seed: 42,
    });
    let t = ds.table;
    let minute = t.attr("minute").unwrap();
    let target = t.attr("global_active_power").unwrap();
    let space = PredicateGen::binary(64).generate(&t, &[minute], target, 0);
    let cfg = DiscoveryConfig::new(vec![minute], target, 0.25);
    let (_, artifact) = DiscoverySession::on(&t)
        .predicates(space)
        .config(cfg)
        .export()
        .unwrap();
    assert!(!artifact.rules.rules().is_empty());

    // Probe batch: every 48th row of the workload, sent verbatim.
    let probe_rows: Vec<usize> = (0..t.num_rows()).step_by(48).collect();
    let body = rows_body(probe_rows.iter().map(|&row| t.row(row)));

    // Offline evaluation of the same probe over the same rule set,
    // rendered with the same formatter the server uses.
    let mut probe = Table::new(t.schema().clone());
    for &row in &probe_rows {
        probe.push_row(t.row(row)).unwrap();
    }
    let offline: Vec<Option<f64>> = (0..probe.num_rows())
        .map(|row| artifact.rules.predict(&probe, row))
        .collect();
    let offline_answered = offline.iter().flatten().count();
    let expected = predictions_field(&offline);
    assert!(
        offline_answered * 2 >= probe.num_rows(),
        "fixture too weak: offline covers {offline_answered}/{}",
        probe.num_rows()
    );

    let sink = MetricsSink::enabled();
    let sound = artifact.to_text();
    let store = Arc::new(RuleStore::open(artifact, sink.clone()).unwrap());
    let server = Server::start(Arc::clone(&store), ServeConfig::default()).unwrap();
    let addr = server.addr();

    // Pin once before any churn.
    let (status, first) = roundtrip(addr, "POST", "/v1/predict", &body).unwrap();
    assert_eq!(status, 200);
    assert!(first.contains("\"complete\": true"), "{first}");
    assert!(
        first.contains(&expected),
        "served predictions differ from offline evaluation"
    );

    // Churn: accepted swaps (same sound artifact) interleaved with
    // rejected garbage, while clients hammer /v1/predict.
    const CLIENTS: usize = 4;
    const REQUESTS: usize = 20;
    const SWAPS: usize = 30;
    let swapper = {
        let sound = sound.clone();
        std::thread::spawn(move || {
            let mut accepted = 0usize;
            for i in 0..SWAPS {
                let candidate: &str = if i % 2 == 0 { &sound } else { "garbage" };
                let (status, _) = roundtrip(addr, "POST", "/admin/swap", candidate).unwrap();
                if status == 200 {
                    accepted += 1;
                } else {
                    assert_eq!(status, 422);
                }
            }
            accepted
        })
    };
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let body = body.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                for _ in 0..REQUESTS {
                    let (status, resp) = roundtrip(addr, "POST", "/v1/predict", &body).unwrap();
                    assert_eq!(status, 200, "{resp}");
                    assert!(resp.contains("\"complete\": true"), "{resp}");
                    assert!(
                        resp.contains(&expected),
                        "a mid-swap answer diverged from offline evaluation"
                    );
                }
            })
        })
        .collect();
    let accepted = swapper.join().unwrap();
    for c in clients {
        c.join().unwrap();
    }
    assert_eq!(accepted, SWAPS / 2, "every sound candidate must land");

    // Ledger: swaps all accounted for, generation matches, and the final
    // serving set still answers the pinned bytes.
    let snap = sink.snapshot();
    assert_eq!(snap.count("serve", "swap_accepted"), Some(accepted as u64));
    assert_eq!(
        snap.count("serve", "swap_rejected"),
        Some((SWAPS - accepted) as u64)
    );
    assert_eq!(store.generation(), accepted as u64);
    let (status, last) = roundtrip(addr, "POST", "/v1/predict", &body).unwrap();
    assert_eq!(status, 200);
    assert!(last.contains(&expected));
    server.shutdown();

    // Round-trip sanity: the swapped artifact really is the same rule set.
    let reparsed = RuleSetArtifact::from_text(&sound).unwrap();
    assert_eq!(reparsed.to_text(), sound);
}
