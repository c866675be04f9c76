//! The planner speaks at `register`, never on the request path: a traced
//! burst must add `serve/*` and `kernel/*` events but not a single
//! `plan/*` one. (The admission estimate once borrowed the super-batch
//! planner and emitted a fake `plan/superbatch` per layer per request.)
//!
//! Alone in its file: tracing is process-global, so a sibling test
//! compiling concurrently would add planner events of its own.

use std::sync::Arc;

use gsampler_graphs::{Dataset, DatasetKind};
use gsampler_obs::{check_trace, TraceCounts};
use gsampler_serve::{EpochServer, ServeConfig, TenantSpec};

/// The trace recorded so far, checked to hold `events`.
fn recorded(events: &[&str]) -> TraceCounts {
    let trace = gsampler_obs::export_chrome_trace();
    check_trace(&trace, &[], events).unwrap_or_else(|e| panic!("{e}"))
}

#[test]
fn planner_events_come_from_register_never_from_submit() {
    gsampler_obs::enable();
    gsampler_obs::reset();
    let graph = Arc::new(Dataset::generate(DatasetKind::Tiny, 1.0, 3).graph);
    let server = EpochServer::start(graph, ServeConfig::default());
    for tenant in ["a", "b"] {
        server
            .register(TenantSpec::graphsage(tenant, &[4, 4], 1))
            .unwrap();
    }
    // Register compiles through the plan database.
    let registered = recorded(&["plan/cache.miss"]);

    let tickets: Vec<_> = (0..12u64)
        .map(|r| {
            let tenant = if r % 2 == 0 { "a" } else { "b" };
            server.submit(tenant, (0..16).collect(), r).unwrap()
        })
        .collect();
    for ticket in tickets {
        ticket.wait().expect("request completes");
    }
    server.shutdown();
    gsampler_obs::disable();

    // The burst itself was traced, and added no planner event.
    let all = recorded(&["serve/request"]);
    assert_eq!(
        all.category("plan"),
        registered.category("plan"),
        "serving a request emitted planner events: {:?} after register, {:?} after the burst",
        registered.names,
        all.names
    );
}
