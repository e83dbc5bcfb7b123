//! CI smoke for the perf path: drives every bench kernel once at tiny
//! sizes across the axes the repo benchmark sweeps — both variants
//! (symmetric / naive), the VM against the interpreter, a threads cell
//! and the scalar lane-mode cell — so a panic on a hot path
//! fails the build instead of the next bench run. Output agreement
//! with the interpreter rides along (byte-identical at these tiny sizes:
//! every fiber is below the lane kernels' short-fiber cutover, so even
//! the default lane mode folds in interpreter order).

use std::collections::HashMap;

use systec_kernels::{defs, Counters, ExecContext, KernelDef, LaneMode, Parallelism, Prepared};
use systec_tensor::generate::{
    random_dense, rng, sprand, symmetric_block_plateau, symmetric_erdos_renyi,
};
use systec_tensor::{LevelFormat, SparseTensor, Tensor};

fn drive(name: &str, def: &KernelDef, inputs: &HashMap<String, Tensor>) {
    for prepared in [
        Prepared::compile(def, inputs).expect("prepare systec"),
        Prepared::naive(def, inputs).expect("prepare naive"),
    ] {
        let (expected, _) = prepared.run_interpreted().expect("interpreted run");
        // The VM in both lane modes — the lanes axis, as in the
        // `-scalar` bench cells.
        for mode in [LaneMode::Lanes, LaneMode::Scalar] {
            let mut outputs = HashMap::new();
            let mut ctx = ExecContext::new().with_lane_mode(mode);
            let mut counters = Counters::new();
            prepared.run_full_into(&mut outputs, &mut ctx, &mut counters).expect("run");
            for (out_name, t) in &expected {
                assert_eq!(
                    &outputs[out_name], t,
                    "{name} {mode:?}: outputs diverge from the interpreter on {out_name}"
                );
            }
        }
        // A threads cell (degrades to serial when the plan is not
        // splittable — still must not panic).
        let threaded = prepared.clone().with_parallelism(Parallelism::threads(2));
        let mut outputs = HashMap::new();
        let mut ctx = ExecContext::new();
        let mut counters = Counters::new();
        threaded.run_timed_into(&mut outputs, &mut ctx, &mut counters).expect("threads run");
    }
}

#[test]
fn every_bench_kernel_runs_at_tiny_size() {
    let mut r = rng(7);
    let a2 = symmetric_erdos_renyi(24, 2, 0.08, &mut r);
    let x = random_dense(vec![24], &mut r);

    let def = defs::ssymv();
    let inputs = def.inputs([("A", a2.clone().into()), ("x", x.clone().into())]).unwrap();
    drive("ssymv", &def, &inputs);

    let def = defs::bellman_ford();
    let inputs = def.inputs([("A", a2.clone().into()), ("d", x.clone().into())]).unwrap();
    drive("bellman_ford", &def, &inputs);

    let def = defs::syprd();
    let inputs = def.inputs([("A", a2.into()), ("x", x.into())]).unwrap();
    drive("syprd", &def, &inputs);

    // The benches feed these three kernels a run-length-packed plateau
    // matrix (the RLE dot / dot-axpy runners); mirror that storage here.
    // n stays below the lane cutover so every clamped window span folds
    // in interpreter order and the byte-equality asserts still hold.
    let mut r = rng(9);
    let plateau = symmetric_block_plateau(12, 4, 0.4, &mut r);
    let plateau = Tensor::Sparse(
        SparseTensor::from_coo(&plateau, &[LevelFormat::Dense, LevelFormat::RunLength])
            .expect("pack plateau matrix"),
    );
    let xs = random_dense(vec![12], &mut r);

    let def = defs::ssymv();
    let inputs =
        HashMap::from([("A".to_string(), plateau.clone()), ("x".to_string(), xs.clone().into())]);
    drive("ssymv-rle", &def, &inputs);

    let def = defs::bellman_ford();
    let inputs =
        HashMap::from([("A".to_string(), plateau.clone()), ("d".to_string(), xs.clone().into())]);
    drive("bellman_ford-rle", &def, &inputs);

    let def = defs::syprd();
    let inputs = HashMap::from([("A".to_string(), plateau), ("x".to_string(), xs.into())]);
    drive("syprd-rle", &def, &inputs);

    let def = defs::ssyrk();
    let a = sprand(12, 12, 30, &mut r);
    let inputs = def.inputs([("A", a.into())]).unwrap();
    drive("ssyrk", &def, &inputs);

    let def = defs::ttm();
    let a3 = symmetric_erdos_renyi(8, 3, 0.08, &mut r);
    let b = random_dense(vec![8, 4], &mut r);
    let inputs = def.inputs([("A", a3.clone().into()), ("B", b.clone().into())]).unwrap();
    drive("ttm", &def, &inputs);

    let def = defs::mttkrp(3);
    let inputs = def.inputs([("A", a3.into()), ("B", b.into())]).unwrap();
    drive("mttkrp3", &def, &inputs);

    let def = defs::mttkrp(4);
    let a4 = symmetric_erdos_renyi(7, 4, 0.05, &mut r);
    let b = random_dense(vec![7, 4], &mut r);
    let inputs = def.inputs([("A", a4.into()), ("B", b.clone().into())]).unwrap();
    drive("mttkrp4", &def, &inputs);

    let def = defs::mttkrp(5);
    let a5 = symmetric_erdos_renyi(6, 5, 0.02, &mut r);
    let b = random_dense(vec![6, 4], &mut r);
    let inputs = def.inputs([("A", a5.into()), ("B", b.into())]).unwrap();
    drive("mttkrp5", &def, &inputs);
}

/// The row-overhead cell set (`benches/row_overhead.rs`) at toy size:
/// all three series measure every cell and the fit stays finite.
#[test]
fn row_overhead_cells_run_at_tiny_size() {
    let fits = systec_bench::row_overhead(300, &[40, 80, 160], std::time::Duration::ZERO);
    let series: Vec<&str> = fits.iter().map(|fit| fit.series).collect();
    assert_eq!(series, ["symmetric", "naive", "native"]);
    for fit in &fits {
        assert_eq!(fit.cells.len(), 3, "{}: one cell per row count", fit.series);
        assert!(fit.cells.iter().all(|&(_, ns)| ns > 0.0), "{}: {:?}", fit.series, fit.cells);
        assert!(fit.ns_per_row.is_finite() && fit.ns_per_pair.is_finite(), "{fit:?}");
    }
}
