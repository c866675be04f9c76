//! Criterion benchmarks of the compile pipeline: pass cost must stay
//! negligible relative to an epoch (the paper amortizes its layout search
//! "within 1 second" over many mini-batches).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use gsampler_algos::{layerwise, nodewise, Hyper};
use gsampler_engine::{CostModel, DeviceProfile, Residency};
use gsampler_ir::passes::{layout, run_passes, OptConfig};
use gsampler_ir::GraphStats;

fn stats() -> GraphStats {
    GraphStats {
        num_nodes: 2_400_000,
        num_edges: 123_000_000,
        feature_dim: 100,
    }
}

fn bench_pass_pipeline(c: &mut Criterion) {
    let h = Hyper::paper();
    let model = CostModel::new(DeviceProfile::v100());
    let programs = vec![
        ("graphsage", nodewise::graphsage_layer(10).program),
        ("ladies", layerwise::ladies_layer(512).program),
        ("pass", nodewise::pass_layer(10).program),
    ];
    let mut group = c.benchmark_group("compile_passes");
    for (name, program) in &programs {
        group.bench_with_input(BenchmarkId::from_parameter(name), program, |b, p| {
            b.iter(|| {
                run_passes(
                    p,
                    &OptConfig::all(),
                    &stats(),
                    h.batch_size,
                    &model,
                    Residency::Device,
                )
            });
        });
    }
    group.finish();
}

fn bench_layout_search(c: &mut Criterion) {
    let model = CostModel::new(DeviceProfile::v100());
    let program = layerwise::ladies_layer(512).program;
    c.bench_function("layout_search_ladies", |b| {
        b.iter(|| {
            let plan = layout::search(
                &program,
                layout::LayoutMode::CostAware,
                &stats(),
                512,
                &model,
                Residency::HostUva {
                    cache_hit_rate: 0.7,
                },
            );
            layout::apply(&program, &plan)
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(1))
        .warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_pass_pipeline, bench_layout_search
}
criterion_main!(benches);
