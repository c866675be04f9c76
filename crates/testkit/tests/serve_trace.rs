//! The planner speaks at `register`, never on the request path: a traced
//! burst must add `serve/*` and `kernel/*` events but not a single
//! `plan/*` one. (The admission estimate once borrowed the super-batch
//! planner and emitted a fake `plan/superbatch` per layer per request.)
//!
//! Alone in its file: tracing is process-global, so a sibling test
//! compiling concurrently would add planner events of its own.

use std::sync::Arc;

use gsampler_graphs::{Dataset, DatasetKind};
use gsampler_obs::json::Json;
use gsampler_serve::{EpochServer, ServeConfig, TenantSpec};

/// `(cat, name)` of every event recorded so far.
fn recorded_events() -> Vec<(String, String)> {
    let trace = Json::parse(&gsampler_obs::export_chrome_trace()).expect("trace parses");
    let field = |e: &Json, key: &str| e.get(key).and_then(Json::as_str).unwrap().to_string();
    trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array")
        .iter()
        .map(|e| (field(e, "cat"), field(e, "name")))
        .collect()
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
    let registered = recorded_events();
    let planner = |events: &[(String, String)]| -> Vec<String> {
        let plan = events.iter().filter(|(cat, _)| cat == "plan");
        plan.map(|(_, name)| name.clone()).collect()
    };
    assert!(
        planner(&registered).iter().any(|n| n == "cache.miss"),
        "register compiles through the plan database: {registered:?}"
    );

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

    let all = recorded_events();
    let burst = &all[registered.len()..];
    assert!(
        burst
            .iter()
            .any(|(cat, name)| cat == "serve" && name == "request"),
        "the burst itself was traced: {burst:?}"
    );
    assert_eq!(
        planner(burst),
        Vec::<String>::new(),
        "serving a request emitted planner events"
    );
}
