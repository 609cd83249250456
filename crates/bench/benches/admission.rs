//! Micro-benchmarks of the admission-control pipeline (§4.2).

use rtpb_bench::harness::{BenchmarkId, Criterion};
use rtpb_bench::{criterion_group, criterion_main};
use rtpb_core::admission::evaluate;
use rtpb_core::config::{ProtocolConfig, SchedulabilityTest};
use rtpb_core::store::ObjectStore;
use rtpb_types::{ObjectSpec, Time, TimeDelta};

fn spec() -> ObjectSpec {
    ObjectSpec::builder("bench")
        .update_period(TimeDelta::from_millis(100))
        .primary_bound(TimeDelta::from_millis(150))
        .backup_bound(TimeDelta::from_millis(550))
        .build()
        .expect("valid spec")
}

fn store_with(n: usize) -> ObjectStore {
    let mut store = ObjectStore::new();
    for _ in 0..n {
        store.register(spec(), Time::ZERO);
    }
    store
}

fn bench_admission(c: &mut Criterion) {
    let mut group = c.benchmark_group("admission_evaluate");
    for &n in &[1usize, 16, 64, 256] {
        let store = store_with(n);
        let config = ProtocolConfig::default();
        group.bench_with_input(BenchmarkId::new("liu_layland", n), &n, |b, _| {
            b.iter(|| evaluate(&store, &[], &[spec()], &config));
        });
    }
    // Compare schedulability tests at a fixed size.
    let store = store_with(64);
    for test in [
        SchedulabilityTest::LiuLayland,
        SchedulabilityTest::Hyperbolic,
        SchedulabilityTest::ResponseTime,
        SchedulabilityTest::EdfUtilization,
    ] {
        let config = ProtocolConfig {
            schedulability_test: test,
            ..ProtocolConfig::default()
        };
        group.bench_function(BenchmarkId::new("test", format!("{test:?}")), |b| {
            b.iter(|| evaluate(&store, &[], &[spec()], &config));
        });
    }
    // One batch of n newcomers: a single evaluation, linear in n.
    for &n in &[16usize, 256, 4096] {
        let batch = vec![spec(); n];
        let config = ProtocolConfig {
            admission_enabled: false,
            ..ProtocolConfig::default()
        };
        group.bench_with_input(BenchmarkId::new("batch", n), &n, |b, _| {
            b.iter(|| evaluate(&ObjectStore::new(), &[], &batch, &config));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_admission);
criterion_main!(benches);
