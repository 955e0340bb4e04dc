//! Table 2: the workload substrate itself — running the parameter-grid sweep
//! on the simulator and collecting the Hadoop/Ganglia logs into an execution
//! log.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hadoop_logs::collect_traces;
use std::hint::black_box;
use workload::{GridSpec, SweepOptions};

fn bench_table2(c: &mut Criterion) {
    // Print the measured grid summary for a strided sweep once.
    let options = SweepOptions::default().with_stride(12);
    let sweep = workload::grid::run_sweep(&GridSpec::paper_table2(), &options);
    println!(
        "table2: ran {} of 540 configurations; mean job duration {:.0} s",
        sweep.traces.len(),
        sweep.traces.iter().map(|t| t.duration()).sum::<f64>() / sweep.traces.len() as f64
    );

    let mut group = c.benchmark_group("table2_workload");
    group.sample_size(10);

    group.bench_function("simulate_one_grid_configuration", |b| {
        let grid = GridSpec::reduced();
        let configs = grid.configurations();
        let excite = workload::ExciteSpec::default().generate();
        let mut i = 0usize;
        b.iter(|| {
            let config = &configs[i % configs.len()];
            i += 1;
            let mut cluster = mrsim::Cluster::new(
                mrsim::ClusterSpec::with_instances(config.instances),
                i as u64,
            );
            cluster.run_job(black_box(config.job_spec(&excite)))
        })
    });

    // Collecting (render + parse + featurise) a handful of traces.
    let few: Vec<mrsim::JobTrace> = sweep.traces.iter().take(4).cloned().collect();
    group.bench_with_input(
        BenchmarkId::new("collect_traces", few.len()),
        &few,
        |b, few| b.iter(|| collect_traces(black_box(few)).unwrap()),
    );
    group.finish();
}

criterion_group!(benches, bench_table2);
criterion_main!(benches);
