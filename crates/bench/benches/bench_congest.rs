//! Benchmarks of the CONGEST simulator: message-passing overhead vs the
//! centralized fast paths of the same algorithms.

use arbmis_congest::Simulator;
use arbmis_core::metivier;
use arbmis_core::protocols::{GhaffariProtocol, LubyProtocol, MetivierProtocol};
use arbmis_graph::gen;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use std::hint::black_box;

fn bench_congest(c: &mut Criterion) {
    let mut group = c.benchmark_group("congest");
    group.sample_size(10);
    for n in [500usize, 2_000] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let g = gen::forest_union(n, 2, &mut rng);
        group.bench_with_input(BenchmarkId::new("metivier_fast", n), &g, |b, g| {
            b.iter(|| black_box(metivier::run(g, 3)))
        });
        group.bench_with_input(BenchmarkId::new("metivier_protocol", n), &g, |b, g| {
            b.iter(|| {
                black_box(
                    Simulator::new(g, 3)
                        .run(&MetivierProtocol, 100_000)
                        .unwrap(),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("luby_protocol", n), &g, |b, g| {
            b.iter(|| black_box(Simulator::new(g, 3).run(&LubyProtocol, 100_000).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("ghaffari_protocol", n), &g, |b, g| {
            b.iter(|| {
                black_box(
                    Simulator::new(g, 3)
                        .run(&GhaffariProtocol, 100_000)
                        .unwrap(),
                )
            })
        });
    }
    group.finish();
}

/// The round engine on the `bench_congest_json` workloads: G(n, p = 4/n)
/// and a random k-tree.
fn bench_congest_workloads(c: &mut Criterion) {
    let mut group = c.benchmark_group("congest_workloads");
    group.sample_size(10);

    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let n = 50_000;
    let gnp = gen::gnp(n, 4.0 / n as f64, &mut rng);
    let ktree = gen::random_ktree(20_000, 3, &mut rng);

    for (name, g) in [("gnp50k_d4", &gnp), ("ktree20k_k3", &ktree)] {
        group.bench_with_input(BenchmarkId::new("metivier", name), g, |b, g| {
            b.iter(|| {
                black_box(
                    Simulator::new(g, 3)
                        .run(&MetivierProtocol, 100_000)
                        .unwrap(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_congest, bench_congest_workloads);
criterion_main!(benches);
