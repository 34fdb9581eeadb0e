//! Tests of the benchmark itself: seeded inputs, the percentile rule, the
//! correctness gate, and the metric declarations in `BENCHMARK.json`.

use openapi_api::{PredictionApi, TwoRegionPlm};
use openapi_core::{Interpretation, OpenApiConfig, OpenApiInterpreter};
use openapi_linalg::Vector;
use perfbench::gate::Gate;
use perfbench::gen;
use perfbench::quantile::Sorted;
use perfbench::report::{self, Metrics, END_TO_END, PER_LAYER};
use perfbench::tally::{Phase, Tally, Times};
use perfbench::workloads::Workload;
use std::sync::Arc;
use std::time::Duration;

/// The little-endian bytes of `instances`.
fn input_bytes(instances: &[Vector]) -> Vec<u8> {
    instances
        .iter()
        .flat_map(|x| x.iter().flat_map(|v| v.to_le_bytes()))
        .collect()
}

fn plan_bytes(plan: &[gen::Arrival]) -> Vec<u8> {
    plan.iter()
        .flat_map(|a| {
            let pick = match a.pick {
                gen::Pick::Hot(i) => i as u64,
                gen::Pick::Fresh => u64::MAX,
            };
            (a.due.as_nanos() as u64)
                .to_le_bytes()
                .into_iter()
                .chain(pick.to_le_bytes())
        })
        .collect()
}

#[test]
fn same_seed_gives_byte_identical_inputs_and_another_seed_differs() {
    let rendered = |seed| input_bytes(&gen::render_instances(seed, 100, 8));
    assert_eq!(rendered(7), rendered(7));
    assert_ne!(rendered(7), rendered(8));
    assert_eq!(rendered(7).len(), 8 * 196 * 8, "d = 196 instances");

    let wide = |seed| input_bytes(&gen::wide_hot_instances(seed, 64));
    assert_eq!(wide(7), wide(7));
    assert_ne!(wide(7), wide(8));

    let boundary = |seed| input_bytes(&gen::boundary_instances(seed, 64));
    assert_eq!(boundary(7), boundary(7));
    assert_ne!(boundary(7), boundary(8));

    let order = |seed| gen::warm_order(seed, 64).take(500).collect::<Vec<_>>();
    assert_eq!(order(7), order(7));
    assert_ne!(order(7), order(8));
    assert!(order(7).iter().all(|&i| i < 64));

    let plan = |seed| {
        plan_bytes(&gen::open_loop_plan(
            seed,
            0,
            500.0,
            Duration::from_secs(2),
            128,
            100,
        ))
    };
    assert_eq!(plan(7), plan(7));
    assert_ne!(plan(7), plan(8));
}

#[test]
fn open_loop_plan_is_one_percent_fresh_at_the_offered_rate() {
    let plan = gen::open_loop_plan(3, 1, 500.0, Duration::from_secs(20), 128, 100);
    let fresh = plan.iter().filter(|a| a.pick == gen::Pick::Fresh).count();
    assert!(
        (9_000..11_000).contains(&plan.len()),
        "{} arrivals",
        plan.len()
    );
    assert!((plan.len() / 100..=plan.len().div_ceil(100)).contains(&fresh));
    assert!(plan.windows(2).all(|w| w[0].due <= w[1].due));
}

#[test]
fn percentile_refuses_a_p99_with_fewer_than_ten_samples_beyond() {
    let samples = |n: usize| Sorted::new((1..=n).map(|i| i as f64).collect());
    let refused = samples(999).percentile(0.99).unwrap_err();
    assert_eq!(refused.beyond, 9);
    assert_eq!(samples(1000).percentile(0.99), Ok(990.0));
    assert!(samples(19).percentile(0.5).is_err());
    assert_eq!(samples(20).percentile(0.5), Ok(10.0));
    assert!(Sorted::new(Vec::new()).percentile(0.5).is_err());
    assert_eq!(samples(999).percentile_or_zero(0.99), 0.0);
}

fn honest_reply() -> (TwoRegionPlm, Vector, Interpretation) {
    let model = TwoRegionPlm::reference();
    let x = TwoRegionPlm::reference_instance(0);
    let mut rng = gen::rng(1, 1);
    let solved = OpenApiInterpreter::new(OpenApiConfig::default())
        .interpret(&model, &x, 0, &mut rng)
        .expect("interior instance solves");
    (model, x, solved.interpretation)
}

fn flip(v: &mut f64, bit: u32) {
    *v = f64::from_bits(v.to_bits() ^ (1u64 << bit));
}

/// The first weight of contrast 0 whose term `w·x` matters at `x`.
fn significant_weight(i: &Interpretation, x: &Vector) -> usize {
    (0..x.len())
        .find(|&j| (i.pairwise[0].weights[j] * x[j]).abs() > 1e-3)
        .expect("some weight carries the prediction")
}

#[test]
fn gate_rejects_a_reply_with_one_flipped_weight_bit() {
    let (model, x, honest) = honest_reply();
    let rtol = OpenApiConfig::default().rtol;
    let fingerprint = honest.fingerprint(9).0;
    let j = significant_weight(&honest, &x);

    let mut gate = Gate::new();
    assert!(gate.check_exact(&model, &x, 0, &honest, rtol));
    assert!(gate.observe(fingerprint, &Arc::new(honest.clone())));
    assert!(gate.failures().is_empty());

    // A high mantissa bit: the weight no longer explains the live model.
    let mut high = honest.clone();
    flip(&mut high.pairwise[0].weights.0[j], 51);
    assert!(!gate.check_exact(&model, &x, 0, &high, rtol));

    // The lowest bit: within every tolerance, but no longer bit-identical
    // to the region's first reply.
    let mut low = honest.clone();
    flip(&mut low.pairwise[0].weights.0[j], 0);
    assert!(!gate.observe(fingerprint, &Arc::new(low)));

    // A flipped decision feature fails exactness against the ground truth.
    let mut features = honest.clone();
    flip(&mut features.decision_features.0[j], 51);
    assert!(!gate.check_exact(&model, &x, 0, &features, rtol));

    assert_eq!(gate.failures().len(), 3);
}

#[test]
fn gate_accepts_bit_identical_replies_from_other_threads() {
    let (_, _, honest) = honest_reply();
    let fingerprint = honest.fingerprint(9).0;
    let mut a = Gate::new();
    let mut b = Gate::new();
    assert!(a.observe(fingerprint, &Arc::new(honest.clone())));
    assert!(b.observe(fingerprint, &Arc::new(honest)));
    a.merge(b);
    assert!(a.failures().is_empty());
    assert!(a.region(fingerprint).is_some());
}

/// `(name, unit)` of every object in the `key` array of `BENCHMARK.json`
/// (a line-per-object file; this scanner reads only that shape).
fn declared(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    let field = |obj: &str, f: &str| -> Option<String> {
        let at = obj.find(&format!("\"{f}\": \""))? + f.len() + 5;
        Some(obj[at..at + obj[at..].find('"')?].to_string())
    };
    body.split('{')
        .skip(1)
        .filter_map(|obj| Some((field(obj, "name")?, field(obj, "unit").unwrap_or_default())))
        .collect()
}

fn benchmark_json() -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

/// `(name, unit)` pairs of a printed result line's metrics.
fn printed(line: &str) -> Vec<(String, String)> {
    let metrics = &line[line.find("\"metrics\": {").expect("metrics object") + 12..];
    metrics
        .split("}, ")
        .map(|entry| {
            let name = entry
                .trim_start_matches(['{', ' '])
                .split('"')
                .nth(1)
                .expect("name");
            let unit = entry.split("\"unit\": \"").nth(1).expect("unit");
            (
                name.to_string(),
                unit[..unit.find('"').expect("unit ends")].to_string(),
            )
        })
        .collect()
}

#[test]
fn every_printed_metric_is_declared_with_its_unit_in_benchmark_json() {
    let json = benchmark_json();
    for (key, set) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let mut want = declared(&json, key);
        let line = report::result_line(true, 1, 0, &Metrics::new().restricted_to(set));
        let mut got = printed(&line);
        want.sort();
        got.sort();
        assert_eq!(got, want, "{key}: printed metrics vs BENCHMARK.json");
    }
    let workloads = declared(&json, "workloads");
    assert!(!workloads.is_empty());
    for (name, _) in workloads {
        assert!(Workload::parse(&name).is_some(), "{name} is not runnable");
    }
}

#[test]
fn undeclared_metrics_are_refused() {
    let result = std::panic::catch_unwind(|| Metrics::new().set("made_up", 1.0));
    assert!(result.is_err());
    assert_eq!(report::unit_of("setup_s"), Some("s"));
}

#[test]
fn the_reference_model_is_what_the_warm_workload_serves() {
    // Both regions of the d = 8 fixture appear among the hot instances.
    let model = TwoRegionPlm::reference();
    let regions: std::collections::BTreeSet<usize> = (0..64)
        .map(|i| model.region_index(TwoRegionPlm::reference_instance(i).as_slice()))
        .collect();
    assert_eq!(regions.len(), 2);
    assert_eq!(model.dim(), 8);

    // So do the hot instances of the d = 196 warm workload.
    let wide = gen::wide_two_region_model();
    let hot = gen::wide_hot_instances(3, 64);
    let wide_region = |x: &Vector| wide.region_index(x.as_slice());
    assert!(hot
        .windows(2)
        .all(|w| wide_region(&w[0]) != wide_region(&w[1])));
    assert_eq!((wide.dim(), wide.num_classes()), (196, 10));

    // The cold d = 8 instances alternate between the regions, at 2^-12
    // to 1 from the boundary, and Algorithm 1 solves them exactly.
    let cold = gen::boundary_instances(3, 200);
    let region = |x: &Vector| model.region_index(x.as_slice());
    assert!(cold.windows(2).all(|w| region(&w[0]) != region(&w[1])));
    assert!(cold
        .iter()
        .all(|x| (2f64.powi(-12)..=1.0).contains(&(x[1] - 0.25).abs())));
    let interpreter = OpenApiInterpreter::new(OpenApiConfig::default());
    let mut gate = Gate::new();
    let mut rng = gen::rng(3, 3);
    for x in &cold[..20] {
        let class = model.predict_label(x.as_slice());
        let solved = interpreter
            .interpret(&model, x, class, &mut rng)
            .expect("solves");
        let rtol = OpenApiConfig::default().rtol;
        assert!(gate.check_exact(&model, x, class, &solved.interpretation, rtol));
    }
}

/// A phase of eight 1-s windows: 100 replies/s at 1 ms, except window 3,
/// where 20 replies/s take 10 ms, and `stolen` windows that lost 30% of
/// the machine to the hypervisor.
fn phase_with_steal(stolen: &[usize]) -> Phase {
    let mut tally = Tally::default();
    for w in 0..8u64 {
        let (n, latency_ns) = if w == 3 {
            (20, 10_000_000)
        } else {
            (100, 1_000_000)
        };
        for i in 0..n {
            let end_ns = w * 1_000_000_000 + i * (1_000_000_000 / n) + 1_000;
            let t = Times {
                phase_ns: 0,
                due_ns: end_ns - latency_ns,
                send_ns: end_ns - latency_ns,
                end_ns,
                lag_ns: 0,
            };
            tally.solved_direct(1, t, false);
        }
    }
    Phase {
        tally,
        length: Duration::from_secs(8),
        wall_s: 8.0,
        stats: None,
        window_steal: (0..8)
            .map(|w| if stolen.contains(&w) { 0.3 } else { 0.005 })
            .collect(),
    }
}

#[test]
fn windowed_medians_leave_out_windows_the_hypervisor_stole() {
    // Windows 3..=5 stolen: five quiet ones remain and only they count.
    let quiet = phase_with_steal(&[3, 4, 5]);
    assert_eq!(quiet.quiet_windows(), 5);
    assert!(!quiet.counts(3) && quiet.counts(2));
    assert!((quiet.throughput() - 100.0).abs() < 1e-6);
    assert!((quiet.latency(0.5).unwrap() - 1.0).abs() < 1e-9);

    // Only four quiet windows: every window counts, the slow one too.
    let busy = phase_with_steal(&[0, 1, 2, 4]);
    assert_eq!(busy.quiet_windows(), 4);
    assert!((0..8).all(|w| busy.counts(w)));
    let rates: Vec<f64> = (0..8).map(|w| if w == 3 { 20.0 } else { 100.0 }).collect();
    assert_eq!(busy.throughput(), perfbench::tally::median(&rates).unwrap());
}
