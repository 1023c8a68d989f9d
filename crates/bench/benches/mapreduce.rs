//! Criterion benches for the MapReduce realization — the kernel behind
//! Figure 6.7.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use dsg_datasets::{im_standin, Scale};
use dsg_mapreduce::{mr_densest_undirected, MapReduceConfig, ShuffleBackend};

fn edge_splits(list: &dsg_graph::EdgeList, parts: usize) -> Vec<&[(u32, u32)]> {
    let chunk = (list.edges.len() / parts).max(1);
    list.edges.chunks(chunk).collect()
}

/// Figure 6.7 kernel: the full MapReduce driver at each ε.
fn bench_mr_driver(c: &mut Criterion) {
    let list = im_standin(Scale::Tiny);
    let splits = edge_splits(&list, 16);
    let config = MapReduceConfig {
        num_workers: 4,
        num_reducers: 16,
        combine: true,
        shuffle: ShuffleBackend::InMemory,
    };
    let mut group = c.benchmark_group("fig67_mapreduce_driver");
    group.sample_size(10);
    for eps in [0.0, 1.0, 2.0] {
        group.bench_with_input(BenchmarkId::from_parameter(eps), &eps, |b, &eps| {
            b.iter(|| black_box(mr_densest_undirected(&config, list.num_nodes, &splits, eps)));
        });
    }
    group.finish();
}

/// Scaling with the worker pool: the simulator's parallel speedup.
fn bench_worker_scaling(c: &mut Criterion) {
    let list = im_standin(Scale::Tiny);
    let splits = edge_splits(&list, 32);
    let mut group = c.benchmark_group("mapreduce_worker_scaling");
    group.sample_size(10);
    for workers in [1usize, 2, 4, 8] {
        let config = MapReduceConfig {
            num_workers: workers,
            num_reducers: 32,
            combine: true,
            shuffle: ShuffleBackend::InMemory,
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(workers),
            &config,
            |b, config| {
                b.iter(|| black_box(mr_densest_undirected(config, list.num_nodes, &splits, 1.0)));
            },
        );
    }
    group.finish();
}

/// Map-side combiner on vs off — Hadoop's standard shuffle optimization
/// applied to the §5.2 degree job.
fn bench_combiner(c: &mut Criterion) {
    let list = im_standin(Scale::Tiny);
    let splits = edge_splits(&list, 16);
    let mut group = c.benchmark_group("mapreduce_combiner");
    group.sample_size(10);
    for (name, combine) in [("with_combiner", true), ("without_combiner", false)] {
        let config = MapReduceConfig {
            num_workers: 4,
            num_reducers: 16,
            combine,
            shuffle: ShuffleBackend::InMemory,
        };
        group.bench_function(name, |b| {
            b.iter(|| black_box(mr_densest_undirected(&config, list.num_nodes, &splits, 1.0)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_mr_driver,
    bench_worker_scaling,
    bench_combiner
);
criterion_main!(benches);
