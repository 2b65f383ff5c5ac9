//! Workload-generation throughput: the arrival stream is regenerated
//! every round (|V|·d draws plus row normalisation), so its cost bounds
//! the whole simulation's overhead budget.

use fasea_bench::harness::{budget, fixed, time_ns, Table};
use fasea_datagen::{RealDataset, SyntheticConfig, SyntheticWorkload, ValueDistribution};

fn main() {
    let budget = budget();
    let mut table = Table::new("datagen_throughput", "ns_per_call");
    // `elements` is the number of context values one call draws, where
    // that is a meaningful throughput denominator.
    let mut push = |op: &'static str, case: String, elements: Option<usize>, ns: f64| {
        table.push(vec![
            ("op", op.into()),
            ("case", case.into()),
            ("elements", elements.into()),
            ("call_ns", fixed(ns, 1)),
        ]);
    };

    for (n, d) in [(100usize, 20usize), (500, 20), (1000, 20), (500, 5)] {
        let workload = SyntheticWorkload::generate(SyntheticConfig {
            num_events: n,
            dim: d,
            seed: 1,
            ..Default::default()
        });
        let mut t = 0u64;
        let ns = time_ns(budget, || {
            t += 1;
            workload.arrivals.arrival(t).capacity
        });
        push("arrival_generation", format!("v{n}_d{d}"), Some(n * d), ns);
    }

    let mut rng = fasea_stats::rng_from_seed(3);
    let mut buf = vec![0.0; 20];
    for dist in [
        ValueDistribution::Uniform,
        ValueDistribution::Normal,
        ValueDistribution::Power,
        ValueDistribution::Shuffle,
    ] {
        let ns = time_ns(budget, || {
            dist.fill(&mut rng, &mut buf);
            buf[0]
        });
        push(
            "distribution_fill",
            dist.label().to_string(),
            Some(buf.len()),
            ns,
        );
    }

    let ns = time_ns(budget, || RealDataset::generate(2016).num_events());
    push("real_dataset", "generate".into(), None, ns);
    let dataset = RealDataset::generate(2016);
    let ns = time_ns(budget, || dataset.contexts_for(0).num_events());
    push("real_dataset", "contexts_for_user".into(), None, ns);
    let ns = time_ns(budget, || dataset.full_knowledge(1));
    push("real_dataset", "full_knowledge_mis".into(), None, ns);
    table.finish();
}
