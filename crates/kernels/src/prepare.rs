//! The prepare-once / run-many kernel runner.
//!
//! The paper's methodology (§5.2) times only the kernel itself: data
//! rearrangement — packing, transposition, diagonal splitting, output
//! replication — happens outside the timed region. [`Prepared`] performs
//! all of that up front; [`Prepared::run_timed`] then measures exactly
//! what the paper measures (output initialization + main loops), while
//! [`Prepared::run_full`] also applies replication, for correctness
//! checks.
//!
//! ## Execution and the plan cache
//!
//! Every run executes on the bytecode VM in `systec-codegen`. The
//! tree-walking interpreter in `systec-exec` stays the differential
//! oracle, reachable through [`Prepared::run_interpreted`]: identical
//! [`Counters`], and identical results bit for bit on a serial run.
//!
//! Kernel *plans* — the compiled program (symmetrization + §4.2 passes),
//! its hoisted/lowered form, and its bytecode — depend only on the
//! einsum, the symmetry declarations, and the input formats and shapes,
//! never on tensor values. [`Prepared::compile`] and [`Prepared::naive`]
//! therefore consult a process-wide LRU [`PlanCache`]: repeated
//! invocations of an identical kernel spec skip symmetrization,
//! hoisting, lowering and compilation entirely (observable through
//! [`plan_cache_stats`]).

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use systec_codegen::{CacheStats, ExecContext, MergeKind, Parallelism, PlanKey, SharedPlanCache};
use systec_core::{CompileOptions, Compiler, SymmetrySpec};
use systec_exec::{alloc_outputs, hoist_conditions, lower, prepare_variants, run_lowered};
use systec_exec::{Counters, ExecError, LoweredProgram};
use systec_ir::Stmt;
use systec_telemetry as telemetry;
use systec_tensor::{DenseTensor, Tensor};

use crate::KernelDef;

/// Everything shape-dependent (but value-independent) about a kernel:
/// the hoisted programs, their lowerings, and their bytecode.
///
/// Immutable and shared: the plan cache hands out [`Arc`]s of these.
pub(crate) struct KernelPlan {
    /// The hoisted main program (scanned for input variants and output
    /// shapes when binding new data).
    main_stmt: Stmt,
    /// The hoisted replication nest, when present.
    rep_stmt: Option<Stmt>,
    main: LoweredProgram,
    replication: Option<LoweredProgram>,
    main_compiled: systec_codegen::CompiledKernel,
    rep_compiled: Option<systec_codegen::CompiledKernel>,
}

impl KernelPlan {
    /// Builds a plan from (unhoisted) programs against concrete
    /// bindings. Only shapes and formats of `inputs` matter for the
    /// plan itself; the materialized bindings (base + derived variants)
    /// and initialized outputs are returned so the caller that just
    /// built the plan does not prepare the same data twice.
    #[allow(clippy::type_complexity)]
    fn build(
        main: Stmt,
        replication: Option<Stmt>,
        inputs: &HashMap<String, Tensor>,
    ) -> Result<(KernelPlan, HashMap<String, Tensor>, HashMap<String, DenseTensor>), ExecError>
    {
        let lower_span = telemetry::span(telemetry::Phase::Lower);
        let main = hoist_conditions(main);
        let replication = replication.map(hoist_conditions);
        let mut all_inputs = inputs.clone();
        all_inputs.extend(prepare_variants(&main, inputs)?);
        let outputs_init = alloc_outputs_for(&main, replication.as_ref(), &all_inputs)?;
        let lowered_main = lower(&main, &all_inputs, &outputs_init)?;
        let lowered_rep = match &replication {
            Some(rep) => Some(lower(rep, &all_inputs, &outputs_init)?),
            None => None,
        };
        drop(lower_span);
        let bytecode_span = telemetry::span(telemetry::Phase::Bytecode);
        let main_compiled =
            systec_codegen::CompiledKernel::compile(&lowered_main, &all_inputs, &outputs_init)?;
        let rep_compiled = match &lowered_rep {
            Some(rep) => {
                Some(systec_codegen::CompiledKernel::compile(rep, &all_inputs, &outputs_init)?)
            }
            None => None,
        };
        drop(bytecode_span);
        let plan = KernelPlan {
            main_stmt: main,
            rep_stmt: replication,
            main: lowered_main,
            replication: lowered_rep,
            main_compiled,
            rep_compiled,
        };
        Ok((plan, all_inputs, outputs_init))
    }
}

/// Allocates the outputs the main program writes, extended with anything
/// only the replication nest writes.
fn alloc_outputs_for(
    main: &Stmt,
    replication: Option<&Stmt>,
    all_inputs: &HashMap<String, Tensor>,
) -> Result<HashMap<String, DenseTensor>, ExecError> {
    let mut outputs_init = alloc_outputs(main, all_inputs)?;
    if let Some(rep) = replication {
        // Replication normally reads and writes outputs the main program
        // already allocated; only infer shapes for anything new.
        let mut new_output = false;
        rep.for_each_access(&mut |a, op| {
            new_output |= op.is_some() && !outputs_init.contains_key(&a.tensor.display_name());
        });
        if new_output {
            for (name, t) in alloc_outputs(rep, all_inputs)? {
                outputs_init.entry(name).or_insert(t);
            }
        }
    }
    Ok(outputs_init)
}

fn plan_cache() -> &'static SharedPlanCache<KernelPlan> {
    static CACHE: OnceLock<SharedPlanCache<KernelPlan>> = OnceLock::new();
    CACHE.get_or_init(|| SharedPlanCache::new(64))
}

/// Materialized data bindings: base + derived inputs, and initialized
/// outputs.
type PlanBindings = (HashMap<String, Tensor>, HashMap<String, DenseTensor>);

/// Looks the key up, building on a miss with no lock held (plan
/// compilation takes milliseconds — concurrent preparations of
/// different kernels must not serialize). Concurrent requests for the
/// *same* key perform exactly one build and share the resulting plan
/// `Arc` ([`SharedPlanCache`]); a build that panics wakes its waiters
/// and leaves the cache usable.
///
/// On a miss, the builder's already-materialized bindings ride along so
/// the caller can construct the [`Prepared`] without preparing the data
/// a second time.
#[allow(clippy::type_complexity)]
fn cached_plan(
    key: PlanKey,
    build: impl FnOnce() -> Result<
        (KernelPlan, HashMap<String, Tensor>, HashMap<String, DenseTensor>),
        ExecError,
    >,
) -> Result<(Arc<KernelPlan>, Option<PlanBindings>), ExecError> {
    plan_cache()
        .get_or_build(&key, || build().map(|(plan, inputs, outputs)| (plan, (inputs, outputs))))
}

/// Observability counters of the process-wide kernel plan cache.
pub fn plan_cache_stats() -> CacheStats {
    plan_cache().stats()
}

/// Drops every cached kernel plan and resets the statistics (tests and
/// benchmarks).
pub fn clear_plan_cache() {
    plan_cache().clear();
}

/// Canonical rendering of symmetry declarations for plan keys.
fn symmetry_fingerprint(spec: &SymmetrySpec) -> String {
    let mut parts: Vec<String> = spec
        .iter()
        .map(|(name, p)| {
            let parts: Vec<&[usize]> = p.parts().collect();
            format!("{name}:{parts:?}")
        })
        .collect();
    parts.sort();
    parts.join(";")
}

/// A kernel prepared against concrete inputs, ready to run repeatedly.
///
/// Cloning is cheap: the plan and the prepared inputs are shared behind
/// [`Arc`]s, so per-invocation runs never re-clone input tensors.
#[derive(Clone)]
pub struct Prepared {
    plan: Arc<KernelPlan>,
    inputs: Arc<HashMap<String, Tensor>>,
    outputs_init: HashMap<String, DenseTensor>,
    parallelism: Parallelism,
}

impl Prepared {
    /// Compiles the kernel with SySTeC (default options) and prepares it
    /// against `inputs`, reusing a cached plan when one exists for this
    /// (einsum, symmetry, formats, dims) key.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] if the program does not validate against
    /// the inputs; compilation errors surface as
    /// [`ExecError::UnknownTensor`]-style validation failures (the
    /// kernel definitions themselves are statically correct).
    pub fn compile(def: &KernelDef, inputs: &HashMap<String, Tensor>) -> Result<Self, ExecError> {
        Self::compile_with(def, inputs, CompileOptions::default())
    }

    /// Compiles with explicit pass toggles (used by the ablation
    /// benchmarks). The toggles are part of the plan-cache key.
    ///
    /// # Errors
    ///
    /// See [`Prepared::compile`]; a kernel definition the compiler
    /// rejects surfaces as [`ExecError::InvalidKernel`] (the shipped
    /// definitions never are).
    pub fn compile_with(
        def: &KernelDef,
        inputs: &HashMap<String, Tensor>,
        options: CompileOptions,
    ) -> Result<Self, ExecError> {
        Self::compile_spec(&def.einsum, &def.symmetry, inputs, options)
    }

    /// Compiles an einsum + symmetry spec directly — the entry point for
    /// callers (the serving layer, scripts) whose kernel arrives as
    /// protocol parameters rather than a shipped [`KernelDef`]. Shares
    /// the process-wide plan cache with [`Prepared::compile`]: the key
    /// is (einsum, symmetry, formats, dims), so N concurrent
    /// preparations of one spec perform exactly one build.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::InvalidKernel`] when the compiler rejects
    /// the spec, and validation errors as in [`Prepared::compile`].
    pub fn compile_einsum(
        einsum: &systec_ir::Einsum,
        symmetry: &SymmetrySpec,
        inputs: &HashMap<String, Tensor>,
    ) -> Result<Self, ExecError> {
        Self::compile_spec(einsum, symmetry, inputs, CompileOptions::default())
    }

    fn compile_spec(
        einsum: &systec_ir::Einsum,
        symmetry: &SymmetrySpec,
        inputs: &HashMap<String, Tensor>,
        options: CompileOptions,
    ) -> Result<Self, ExecError> {
        let key = PlanKey::new(
            format!("systec::{einsum}::{options:?}"),
            symmetry_fingerprint(symmetry),
            inputs,
        );
        let (plan, bindings) = cached_plan(key, || {
            let symmetrize_span = telemetry::span(telemetry::Phase::Symmetrize);
            let kernel = Compiler::with_options(options)
                .compile(einsum, symmetry)
                .map_err(|e| ExecError::InvalidKernel { message: e.to_string() })?;
            drop(symmetrize_span);
            KernelPlan::build(kernel.main, kernel.replication, inputs)
        })?;
        Self::from_cache(plan, bindings, inputs)
    }

    /// Prepares the naive (symmetry-oblivious) kernel — the paper's
    /// "naive Finch" baseline — through the same plan cache.
    ///
    /// # Errors
    ///
    /// See [`Prepared::compile`].
    pub fn naive(def: &KernelDef, inputs: &HashMap<String, Tensor>) -> Result<Self, ExecError> {
        Self::naive_einsum(&def.einsum, inputs)
    }

    /// Prepares the naive kernel of a bare einsum (no symmetry exploited)
    /// through the plan cache — the serving-layer analogue of
    /// [`Prepared::naive`]. Keys identically to `naive`, so a served
    /// naive kernel and a [`KernelDef`]-driven one share a plan.
    ///
    /// # Errors
    ///
    /// See [`Prepared::compile`].
    pub fn naive_einsum(
        einsum: &systec_ir::Einsum,
        inputs: &HashMap<String, Tensor>,
    ) -> Result<Self, ExecError> {
        let key = PlanKey::new(format!("naive::{einsum}"), String::new(), inputs);
        let (plan, bindings) = cached_plan(key, || {
            let symmetrize_span = telemetry::span(telemetry::Phase::Symmetrize);
            let program = Compiler::new().naive(einsum);
            drop(symmetrize_span);
            KernelPlan::build(program, None, inputs)
        })?;
        Self::from_cache(plan, bindings, inputs)
    }

    /// Prepares an arbitrary program (used by tests and ablations).
    /// Bypasses the plan cache — arbitrary statements have no stable
    /// kernel identity to key on.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] if the program does not validate.
    pub fn from_programs(
        main: Stmt,
        replication: Option<Stmt>,
        inputs: &HashMap<String, Tensor>,
    ) -> Result<Self, ExecError> {
        let (plan, all_inputs, outputs_init) = KernelPlan::build(main, replication, inputs)?;
        Ok(Self::assemble(Arc::new(plan), all_inputs, outputs_init))
    }

    /// Assembles from a cache result: a miss carries the builder's
    /// already-materialized bindings; a hit binds the new data.
    fn from_cache(
        plan: Arc<KernelPlan>,
        bindings: Option<PlanBindings>,
        inputs: &HashMap<String, Tensor>,
    ) -> Result<Self, ExecError> {
        match bindings {
            Some((all_inputs, outputs_init)) => Ok(Self::assemble(plan, all_inputs, outputs_init)),
            None => Self::bind(plan, inputs),
        }
    }

    /// Binds a cached plan to new concrete data: materializes the
    /// derived input variants (transposes, diagonal splits — the
    /// paper's untimed rearrangement) and allocates initialized
    /// outputs.
    fn bind(plan: Arc<KernelPlan>, inputs: &HashMap<String, Tensor>) -> Result<Self, ExecError> {
        let mut all_inputs = inputs.clone();
        all_inputs.extend(prepare_variants(&plan.main_stmt, inputs)?);
        let outputs_init = alloc_outputs_for(&plan.main_stmt, plan.rep_stmt.as_ref(), &all_inputs)?;
        Ok(Self::assemble(plan, all_inputs, outputs_init))
    }

    fn assemble(
        plan: Arc<KernelPlan>,
        all_inputs: HashMap<String, Tensor>,
        outputs_init: HashMap<String, DenseTensor>,
    ) -> Self {
        Prepared {
            plan,
            inputs: Arc::new(all_inputs),
            outputs_init,
            parallelism: Parallelism::default(),
        }
    }

    /// Selects the execution parallelism for the timed main loops (the
    /// default is [`Parallelism::Serial`]). Workers dispatch only for
    /// plans the compiler proved splittable (see
    /// [`Prepared::splittable`]); everything else runs serially with
    /// identical results. Counters are exact (merged by integer sums) in
    /// every mode.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The active execution parallelism.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Whether the compiled main program can actually dispatch workers
    /// under [`Parallelism::Threads`].
    ///
    /// **A `false` here means thread requests are silently ignored**:
    /// [`Parallelism::Threads`] on a non-splittable plan runs serially
    /// with identical results and counters, and nothing else reports
    /// the degradation. Callers that surface a thread count to users
    /// (e.g. the `systec` CLI's `--threads`) should check this and say
    /// so — [`serial_fallback_note`] renders the standard one-liner.
    pub fn splittable(&self) -> bool {
        self.plan.main_compiled.splittable()
    }

    /// Overrides the initial value of an output tensor (e.g. seeding
    /// Bellman-Ford's `y` with the current distances `d`).
    ///
    /// # Panics
    ///
    /// Panics if the output does not exist or the shape differs.
    pub fn init_output(&mut self, name: &str, value: DenseTensor) {
        let slot = self
            .outputs_init
            .get_mut(name)
            .unwrap_or_else(|| panic!("kernel has no output named {name}"));
        assert_eq!(slot.dims(), value.dims(), "init shape mismatch for output {name}");
        *slot = value;
    }

    /// The prepared (base + derived) input bindings.
    pub fn inputs(&self) -> &HashMap<String, Tensor> {
        &self.inputs
    }

    /// Whether two prepared kernels execute one shared cached plan —
    /// i.e. the second preparation performed no symmetrization,
    /// hoisting, lowering or bytecode compilation at all.
    pub fn shares_plan_with(&self, other: &Prepared) -> bool {
        Arc::ptr_eq(&self.plan, &other.plan)
    }

    /// Re-initializes every output in place when `outputs` already holds
    /// it at the right shape, inserting a fresh copy otherwise.
    fn reset_outputs(&self, outputs: &mut HashMap<String, DenseTensor>) {
        for (name, init) in &self.outputs_init {
            match outputs.get_mut(name) {
                Some(existing) if existing.dims() == init.dims() => {
                    existing.as_mut_slice().copy_from_slice(init.as_slice());
                }
                _ => {
                    outputs.insert(name.clone(), init.clone());
                }
            }
        }
    }

    fn exec_main(
        &self,
        outputs: &mut HashMap<String, DenseTensor>,
        ctx: &mut ExecContext,
        counters: &mut Counters,
    ) -> Result<(), ExecError> {
        self.plan.main_compiled.run_with(&self.inputs, outputs, ctx, self.parallelism, counters)
    }

    /// Runs the timed region once — fresh outputs, main loops, no
    /// replication — matching the paper's measurement.
    ///
    /// # Errors
    ///
    /// Propagates executor failures (none occur after successful
    /// preparation).
    pub fn run_timed(&self) -> Result<(HashMap<String, DenseTensor>, Counters), ExecError> {
        let mut outputs = self.outputs_init.clone();
        let mut ctx = ExecContext::new();
        let mut counters = Counters::new();
        self.exec_main(&mut outputs, &mut ctx, &mut counters)?;
        Ok((outputs, counters))
    }

    /// Like [`Prepared::run_timed`], but over caller-owned state:
    /// existing output tensors of the right shape are re-initialized in
    /// place, the [`ExecContext`] supplies every per-run buffer, and
    /// `counters` is updated in place. The steady-state path is
    /// therefore **allocation-free**, so repeated invocations (the
    /// benchmark loop, a serving loop) measure kernel work, not
    /// allocator traffic.
    ///
    /// # Errors
    ///
    /// Propagates executor failures (none occur after successful
    /// preparation).
    pub fn run_timed_into(
        &self,
        outputs: &mut HashMap<String, DenseTensor>,
        ctx: &mut ExecContext,
        counters: &mut Counters,
    ) -> Result<(), ExecError> {
        self.reset_outputs(outputs);
        self.exec_main(outputs, ctx, counters)
    }

    /// Like [`Prepared::run_timed_into`], but executes only coordinate
    /// chunk `k` of `n` of the main program. The
    /// outputs are re-initialized and bound at full shape: row-owned
    /// outputs receive exactly their window rows, reduction-merged
    /// outputs hold this shard's partial. Merging all `n` shards per
    /// [`Prepared::split_outputs`] (and summing counters) reproduces
    /// the serial run — the cross-process analogue of
    /// [`Parallelism::Threads`].
    ///
    /// # Errors
    ///
    /// [`ExecError::InvalidKernel`] when the plan is not
    /// [splittable](Prepared::splittable) or `(k, n)` is out of range;
    /// executor failures otherwise.
    pub fn run_shard_into(
        &self,
        outputs: &mut HashMap<String, DenseTensor>,
        ctx: &mut ExecContext,
        counters: &mut Counters,
        k: usize,
        n: usize,
    ) -> Result<(), ExecError> {
        self.reset_outputs(outputs);
        self.plan.main_compiled.run_chunk_with(&self.inputs, outputs, ctx, counters, k, n)
    }

    /// The per-output merge classification of a splittable main program
    /// (`None` when not splittable) — how a cross-process merger must
    /// recombine the shard buffers produced by
    /// [`Prepared::run_shard_into`].
    pub fn split_outputs(&self) -> Option<Vec<(String, MergeKind)>> {
        self.plan.main_compiled.split_outputs()
    }

    /// Runs everything — main loops *and* output replication — returning
    /// the complete result for correctness checks.
    ///
    /// # Errors
    ///
    /// Propagates executor failures (none occur after successful
    /// preparation).
    pub fn run_full(&self) -> Result<(HashMap<String, DenseTensor>, Counters), ExecError> {
        let mut outputs = HashMap::new();
        let mut counters = Counters::new();
        self.run_full_into(&mut outputs, &mut ExecContext::new(), &mut counters)?;
        Ok((outputs, counters))
    }

    /// Like [`Prepared::run_full`], but over caller-owned state, as
    /// [`Prepared::run_timed_into`]: the replication nest runs serially
    /// through the same [`ExecContext`], its counters merged in.
    ///
    /// # Errors
    ///
    /// Propagates executor failures (none occur after successful
    /// preparation).
    pub fn run_full_into(
        &self,
        outputs: &mut HashMap<String, DenseTensor>,
        ctx: &mut ExecContext,
        counters: &mut Counters,
    ) -> Result<(), ExecError> {
        self.run_timed_into(outputs, ctx, counters)?;
        if let Some(rep) = &self.plan.rep_compiled {
            let mut rep_counters = Counters::new();
            rep.run_with(&self.inputs, outputs, ctx, Parallelism::Serial, &mut rep_counters)?;
            counters.merge(&rep_counters);
        }
        Ok(())
    }

    /// Runs everything, as [`Prepared::run_full`] does, on the
    /// tree-walking interpreter (`systec_exec::run_lowered`) instead of
    /// the VM: main loops, then replication. The interpreter is the
    /// differential oracle the VM is tested against — its counters are
    /// the VM's exactly, and its outputs those of a serial VM run bit for
    /// bit. It is not a production path.
    ///
    /// # Errors
    ///
    /// Propagates interpreter failures (none occur after successful
    /// preparation).
    pub fn run_interpreted(&self) -> Result<(HashMap<String, DenseTensor>, Counters), ExecError> {
        let mut outputs = self.outputs_init.clone();
        let mut counters = run_lowered(&self.plan.main, &self.inputs, &mut outputs)?;
        if let Some(rep) = &self.plan.replication {
            counters.merge(&run_lowered(rep, &self.inputs, &mut outputs)?);
        }
        Ok((outputs, counters))
    }
}

/// The one-line note a front end should print when the user asked for
/// `threads > 1` but the plan cannot split (so the run silently
/// degrades to serial execution). `None` when the request and the plan
/// agree — serial requests never warn, and splittable plans dispatch as
/// asked.
pub fn serial_fallback_note(requested: Parallelism, splittable: bool) -> Option<String> {
    match requested {
        Parallelism::Threads(n) if n >= 2 && !splittable => Some(format!(
            "note: --threads {n} requested, but this plan is not row-splittable \
             (scattered overwrites or cross-row reads); running serially"
        )),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defs;
    use systec_exec::reference::reference_einsum;
    use systec_tensor::generate::{random_dense, rng, symmetric_erdos_renyi};

    fn ssymv_setup(n: usize, seed: u64) -> (KernelDef, HashMap<String, Tensor>) {
        let def = defs::ssymv();
        let mut r = rng(seed);
        let a = symmetric_erdos_renyi(n, 2, 0.15, &mut r);
        let x = random_dense(vec![n], &mut r);
        let inputs = def.inputs([("A", a.into()), ("x", x.into())]).unwrap();
        (def, inputs)
    }

    #[test]
    fn ssymv_symmetric_matches_naive_and_reference() {
        let (def, inputs) = ssymv_setup(24, 7);
        let sym = Prepared::compile(&def, &inputs).unwrap();
        let naive = Prepared::naive(&def, &inputs).unwrap();
        let (ys, _) = sym.run_full().unwrap();
        let (yn, _) = naive.run_full().unwrap();
        let reference = reference_einsum(&def.einsum, &inputs).unwrap();
        assert!(ys["y"].max_abs_diff(&yn["y"]).unwrap() < 1e-10);
        assert!(ys["y"].max_abs_diff(&reference).unwrap() < 1e-10);
    }

    #[test]
    fn backends_agree_on_results_and_counters() {
        let (def, inputs) = ssymv_setup(32, 13);
        let compiled = Prepared::compile(&def, &inputs).unwrap();
        let (yc, cc) = compiled.run_full().unwrap();
        let (yi, ci) = compiled.run_interpreted().unwrap();
        let bits = |t: &DenseTensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&yc["y"]), bits(&yi["y"]), "the VM must agree bit for bit");
        assert_eq!(cc, ci, "counter parity across backends");
    }

    #[test]
    fn ssymv_reads_roughly_half() {
        let (def, inputs) = ssymv_setup(40, 11);
        let sym = Prepared::compile(&def, &inputs).unwrap();
        let naive = Prepared::naive(&def, &inputs).unwrap();
        let (_, cs) = sym.run_full().unwrap();
        let (_, cn) = naive.run_full().unwrap();
        let nnz = inputs["A"].as_sparse().unwrap().nnz() as u64;
        assert_eq!(cn.reads_of_family("A"), nnz, "naive touches every stored entry once");
        // Symmetric kernel touches only the canonical triangle:
        // (nnz + diag) / 2 entries.
        assert!(cs.reads_of_family("A") <= nnz / 2 + 40);
        assert!(cs.reads_of_family("A") * 2 >= nnz.saturating_sub(40), "not too few either");
    }

    #[test]
    fn bellman_ford_matches_reference_with_warm_start() {
        let def = defs::bellman_ford();
        let mut r = rng(3);
        let a = symmetric_erdos_renyi(16, 2, 0.2, &mut r);
        let d = random_dense(vec![16], &mut r);
        let inputs = def.inputs([("A", a.into()), ("d", d.clone().into())]).unwrap();
        let mut sym = Prepared::compile(&def, &inputs).unwrap();
        let mut naive = Prepared::naive(&def, &inputs).unwrap();
        // Warm-start y = d, as a real Bellman-Ford iteration would.
        sym.init_output("y", d.clone());
        naive.init_output("y", d.clone());
        let (ys, _) = sym.run_full().unwrap();
        let (yn, _) = naive.run_full().unwrap();
        assert!(ys["y"].max_abs_diff(&yn["y"]).unwrap() < 1e-10);
        // Warm start means y <= d everywhere.
        for i in 0..16 {
            assert!(ys["y"].get(&[i]) <= d.get(&[i]) + 1e-12);
        }
    }

    #[test]
    fn run_timed_skips_replication() {
        let def = defs::ssyrk();
        let mut r = rng(5);
        let a = systec_tensor::generate::sprand(12, 12, 30, &mut r);
        let inputs = def.inputs([("A", a.into())]).unwrap();
        let sym = Prepared::compile(&def, &inputs).unwrap();
        let (timed, _) = sym.run_timed().unwrap();
        let (full, _) = sym.run_full().unwrap();
        // run_full fills the lower triangle; run_timed leaves it zero.
        let mut below_diag_differs = false;
        for i in 0..12 {
            for j in 0..i {
                if timed["C"].get(&[i, j]) != full["C"].get(&[i, j]) {
                    below_diag_differs = true;
                }
            }
        }
        assert!(below_diag_differs);
        // Above and on the diagonal they agree.
        for i in 0..12 {
            for j in i..12 {
                assert_eq!(timed["C"].get(&[i, j]), full["C"].get(&[i, j]));
            }
        }
    }

    #[test]
    fn run_timed_into_reuses_buffers_and_matches() {
        let (def, inputs) = ssymv_setup(20, 21);
        let sym = Prepared::compile(&def, &inputs).unwrap();
        let (fresh, c_fresh) = sym.run_timed().unwrap();
        let mut reused = HashMap::new();
        let mut ctx = ExecContext::new();
        let mut c1 = Counters::new();
        let mut c2 = Counters::new();
        sym.run_timed_into(&mut reused, &mut ctx, &mut c1).unwrap();
        sym.run_timed_into(&mut reused, &mut ctx, &mut c2).unwrap();
        assert_eq!(c1, c2, "re-running over reused buffers is idempotent");
        assert_eq!(c1, c_fresh);
        assert_eq!(reused["y"], fresh["y"]);
    }

    #[test]
    fn parallel_run_matches_serial_with_exact_counters() {
        let (def, inputs) = ssymv_setup(48, 5);
        let serial = Prepared::compile(&def, &inputs).unwrap();
        assert!(serial.splittable(), "ssymv's main program splits");
        let parallel = serial.clone().with_parallelism(Parallelism::threads(4));
        let (ys, cs) = serial.run_full().unwrap();
        let (yp, cp) = parallel.run_full().unwrap();
        assert_eq!(cs, cp, "merged counters must equal the serial counters exactly");
        assert!(ys["y"].max_abs_diff(&yp["y"]).unwrap() < 1e-9);
    }

    #[test]
    fn serial_fallback_note_fires_only_for_degraded_requests() {
        // Threads on a non-splittable plan: the silent degradation must
        // be called out.
        let note = serial_fallback_note(Parallelism::Threads(4), false);
        assert!(note.as_deref().is_some_and(|n| n.contains("--threads 4")), "{note:?}");
        assert!(note.as_deref().is_some_and(|n| n.contains("running serially")), "{note:?}");
        // Everything that runs as requested stays quiet.
        assert_eq!(serial_fallback_note(Parallelism::Threads(4), true), None);
        assert_eq!(serial_fallback_note(Parallelism::Serial, false), None);
        assert_eq!(serial_fallback_note(Parallelism::Serial, true), None);
        // `threads(1)` normalizes to Serial; a literal Threads(1) is a
        // serial run either way and must not warn.
        assert_eq!(serial_fallback_note(Parallelism::threads(1), false), None);
        assert_eq!(serial_fallback_note(Parallelism::Threads(1), false), None);
        // The note matches what a real non-splittable preparation says.
        let transpose = systec_ir::Einsum::new(
            systec_ir::build::access("C", ["j", "i"]),
            systec_ir::AssignOp::Overwrite,
            systec_ir::build::access("A", ["i", "j"]).into(),
            [systec_ir::build::idx("i"), systec_ir::build::idx("j")],
        );
        let mut r = rng(2);
        let coo = symmetric_erdos_renyi(10, 2, 0.2, &mut r);
        let a = systec_tensor::SparseTensor::from_coo(&coo, &systec_tensor::csf(2)).unwrap();
        let mut inputs = HashMap::new();
        inputs.insert("A".to_string(), Tensor::Sparse(a));
        let prepared = Prepared::from_programs(transpose.naive_program(), None, &inputs).unwrap();
        assert!(!prepared.splittable(), "scattered overwrites stay serial");
        assert!(serial_fallback_note(Parallelism::Threads(2), prepared.splittable()).is_some());
    }

    #[test]
    fn compile_einsum_shares_plans_with_kernel_defs() {
        // n = 26 is unique to this test (keys must not collide with
        // concurrently running tests).
        let (def, inputs) = ssymv_setup(26, 17);
        let via_def = Prepared::compile(&def, &inputs).unwrap();
        let via_spec = Prepared::compile_einsum(&def.einsum, &def.symmetry, &inputs).unwrap();
        assert!(
            via_def.shares_plan_with(&via_spec),
            "spec-driven preparation must key identically to the KernelDef path"
        );
        let naive_def = Prepared::naive(&def, &inputs).unwrap();
        let naive_spec = Prepared::naive_einsum(&def.einsum, &inputs).unwrap();
        assert!(naive_def.shares_plan_with(&naive_spec));
        // And they compute the same thing.
        let (a, ca) = via_def.run_full().unwrap();
        let (b, cb) = via_spec.run_full().unwrap();
        assert_eq!(a["y"], b["y"]);
        assert_eq!(ca, cb);
    }

    #[test]
    fn invalid_spec_errors_instead_of_panicking() {
        let (def, inputs) = ssymv_setup(14, 3);
        // Declare a rank-3 symmetry on the rank-2 tensor: the compiler
        // rejects the spec, and preparation must surface that as an
        // error (the serving layer feeds untrusted specs here).
        let bad = SymmetrySpec::new().with_full("A", 3);
        let err = match Prepared::compile_einsum(&def.einsum, &bad, &inputs) {
            Ok(_) => panic!("rank-mismatched symmetry must be rejected"),
            Err(e) => e,
        };
        assert!(
            matches!(err, ExecError::InvalidKernel { .. }),
            "expected InvalidKernel, got {err:?}"
        );
        // The failed build poisons nothing: the valid spec still works.
        let ok = Prepared::compile_einsum(&def.einsum, &def.symmetry, &inputs).unwrap();
        let (out, _) = ok.run_full().unwrap();
        let reference = reference_einsum(&def.einsum, &inputs).unwrap();
        assert!(out["y"].max_abs_diff(&reference).unwrap() < 1e-10);
    }

    #[test]
    fn plan_cache_hit_skips_compilation() {
        // n = 18 is unique to this test, so the key below is not built
        // by any concurrently running test.
        let (def, inputs) = ssymv_setup(18, 33);
        let before = plan_cache_stats();
        let first = Prepared::compile(&def, &inputs).unwrap();
        // Different values, same formats and dims: the plan is reused.
        let (_, inputs2) = ssymv_setup(18, 99);
        let second = Prepared::compile(&def, &inputs2).unwrap();
        let after = plan_cache_stats();
        assert!(
            first.shares_plan_with(&second),
            "second invocation must reuse the cached plan verbatim"
        );
        assert!(after.hits > before.hits, "the reuse is visible as a cache hit");
        // And the shared plan still computes the right answer on the
        // second data set.
        let reference = reference_einsum(&def.einsum, &inputs2).unwrap();
        let (out, _) = second.run_full().unwrap();
        assert!(out["y"].max_abs_diff(&reference).unwrap() < 1e-10);
    }
}
