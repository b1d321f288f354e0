//! Prepared plans: compile-once/execute-many at the *executor* level.
//!
//! Every execution lowers its expressions through a [`CompiledCache`]
//! (see `mpp_expr::compile`). Expressions are compiled **without**
//! parameter values — `$n` stays an `UnboundParam` node — so one template
//! serves every execution: parameter-free templates are shared as-is, and
//! parameter-bearing ones are cheaply re-bound per execution with
//! [`CompiledExpr::bind_params`] (substitute + re-specialize + re-fold,
//! no column resolution or tree lowering). The executor never folds a
//! parameter at compile time.
//!
//! A [`PreparedPlan`] pins a physical plan behind an `Arc` and keeps its
//! cache alive across executions; [`crate::execute_with_params_sched`]
//! gives its plan a fresh cache for one execution.
//!
//! The cache is keyed by expression node *address* inside the plan.
//! That is sound precisely because the plan is immutable and outlives
//! the cache's use: every `Expr` the interpreter passes to `compiled()`
//! is a node of that plan — the executor never compiles a copy — and its
//! address is stable for the cache's whole lifetime. The interpreter
//! compiles lazily at each per-row site, so only expressions a query
//! actually reaches occupy cache space.

use crate::exec::{run_plan_sched, run_plan_stream, ExecEngine, ExecMode, QueryResult};
use crate::morsel::SchedConfig;
use crate::stream::{CancelToken, RowSink, StreamResult};
use mpp_common::{Datum, Result};
use mpp_expr::{compile, ColRef, CompiledExpr, EvalContext, Expr};
use mpp_plan::PhysicalPlan;
use mpp_storage::Storage;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Address-keyed store of parameter-preserving compiled templates for
/// the expressions of one pinned plan.
#[derive(Default)]
pub struct CompiledCache {
    templates: Mutex<HashMap<usize, Arc<CompiledExpr>>>,
}

impl CompiledCache {
    pub fn new() -> CompiledCache {
        CompiledCache::default()
    }

    /// The template for `e` (a node of the pinned plan), compiling on
    /// first use. `cols` is the operator's output-column context — fixed
    /// per site, so one address always compiles under the same context.
    pub(crate) fn get_or_compile(&self, e: &Expr, cols: &[ColRef]) -> Arc<CompiledExpr> {
        let key = e as *const Expr as usize;
        if let Some(t) = self.templates.lock().get(&key) {
            return Arc::clone(t);
        }
        // Compile outside the lock: compilation is pure, and a racing
        // duplicate is dropped by `or_insert`.
        let t = Arc::new(compile(e, &EvalContext::from_columns(cols)));
        Arc::clone(self.templates.lock().entry(key).or_insert(t))
    }

    /// How many expression sites have been compiled so far.
    pub fn len(&self) -> usize {
        self.templates.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A physical plan pinned for repeated execution, with its compiled
/// expression templates cached across executions.
pub struct PreparedPlan {
    plan: Arc<PhysicalPlan>,
    cache: CompiledCache,
}

impl PreparedPlan {
    pub fn new(plan: Arc<PhysicalPlan>) -> PreparedPlan {
        PreparedPlan {
            plan,
            cache: CompiledCache::new(),
        }
    }

    pub fn plan(&self) -> &Arc<PhysicalPlan> {
        &self.plan
    }

    /// Expression sites compiled so far (grows on first execution, then
    /// stays put — the observable signature of template reuse).
    pub fn compiled_sites(&self) -> usize {
        self.cache.len()
    }

    /// Execute the pinned plan with fresh parameter bindings under an
    /// explicit engine and scheduler configuration (worker count, morsel
    /// size). [`ExecMode::Parallel`] defaults an unset worker count to
    /// one per segment; the mode is kept for the benchmark harness only.
    pub fn execute_engine_sched(
        &self,
        storage: &Storage,
        params: &[Datum],
        mode: ExecMode,
        engine: ExecEngine,
        sched: &SchedConfig,
    ) -> Result<QueryResult> {
        let sched = match mode {
            ExecMode::Sequential => *sched,
            ExecMode::Parallel => SchedConfig {
                workers: Some(sched.workers.unwrap_or(storage.num_segments())),
                ..*sched
            },
        };
        run_plan_sched(storage, &self.plan, params, engine, &self.cache, &sched)
    }

    /// Streaming execution of the pinned plan: chunks flow through
    /// `sink` as segments finish, cancellation is honored at block
    /// boundaries, and statistics survive errors. Same template cache as
    /// the collecting path.
    pub fn execute_stream_sched(
        &self,
        storage: &Storage,
        params: &[Datum],
        engine: ExecEngine,
        sched: &SchedConfig,
        cancel: &CancelToken,
        sink: &mut RowSink<'_>,
    ) -> StreamResult {
        run_plan_stream(
            storage,
            &self.plan,
            params,
            engine,
            &self.cache,
            sched,
            cancel,
            sink,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute_with_params_sched;
    use mpp_catalog::Catalog;
    use mpp_expr::{CmpOp, ColRef};

    fn execute(
        prepared: &PreparedPlan,
        storage: &Storage,
        params: &[Datum],
    ) -> Result<QueryResult> {
        prepared.execute_engine_sched(
            storage,
            params,
            ExecMode::Sequential,
            ExecEngine::default(),
            &SchedConfig::default(),
        )
    }

    /// `SELECT * FROM (VALUES 0..10) v(x) WHERE x < $1`.
    fn param_filter_plan() -> Arc<PhysicalPlan> {
        let x = ColRef::new(1, "x");
        Arc::new(PhysicalPlan::Filter {
            pred: Expr::cmp(CmpOp::Lt, Expr::col(x.clone()), Expr::Param(1)),
            child: Box::new(PhysicalPlan::Values {
                rows: (0..10).map(|i| vec![Datum::Int32(i)]).collect(),
                output: vec![x],
            }),
        })
    }

    #[test]
    fn prepared_matches_fresh_and_reuses_templates() {
        let storage = Storage::new(Catalog::new(), 2);
        let plan = param_filter_plan();
        let prepared = PreparedPlan::new(Arc::clone(&plan));
        assert_eq!(prepared.compiled_sites(), 0);
        let (engine, sched) = (ExecEngine::default(), SchedConfig::default());
        // `Parallel` is the fresh path on one worker per segment.
        for (mode, workers) in [(ExecMode::Sequential, 1), (ExecMode::Parallel, 2)] {
            let fresh_sched = SchedConfig::with_workers(workers);
            for n in [0, 3, 10] {
                let params = [Datum::Int32(n)];
                let got = prepared
                    .execute_engine_sched(&storage, &params, mode, engine, &sched)
                    .unwrap();
                let want =
                    execute_with_params_sched(&storage, &plan, &params, engine, &fresh_sched)
                        .unwrap();
                assert_eq!(got.rows, want.rows, "n={n} mode={mode:?}");
                assert_eq!(got.rows.len(), n as usize);
            }
        }
        // One Filter site compiled, once — not once per execution.
        assert_eq!(prepared.compiled_sites(), 1);
    }

    #[test]
    fn missing_param_still_errors_per_execution() {
        let storage = Storage::new(Catalog::new(), 1);
        let prepared = PreparedPlan::new(param_filter_plan());
        let err = execute(&prepared, &storage, &[]).unwrap_err();
        assert!(err.to_string().contains("$1"), "{err}");
        // The same handle still works once the parameter is supplied.
        let ok = execute(&prepared, &storage, &[Datum::Int32(5)]).unwrap();
        assert_eq!(ok.rows.len(), 5);
    }
}
