//! Statement-level plan checking: the SQL front end of
//! `fsdm_store::typecheck`.
//!
//! The inference, the path lint and the translation validator live in
//! `fsdm_store::typecheck`; this module plans the SQL text and runs
//! [`check_plan`] over the result, so callers get one [`Inference`] per
//! statement: the PK001–PK006 type findings and the FA001–FA007 findings
//! of every SQL/JSON path the plan evaluates, view bodies included.
//! Every call feeds the `planck.*` metrics.

use std::time::Instant;

use fsdm_obs::catalog::metric;
use fsdm_sqljson::Datum;
use fsdm_store::typecheck::{check_plan, Inference};

use crate::planner::Session;
use crate::Result;

impl Session {
    /// Check one SELECT: plan it, infer the output schema (column names,
    /// scalar types, nullability), lint every SQL/JSON path against the
    /// DataGuide of the table it probes, and validate the optimizer's
    /// rewrite of the plan — schema equivalence, preserved determinism
    /// and parallel-safety class, idempotence. A statement that does not
    /// plan (DDL, an unknown column, a missing bind, unparsable path
    /// text) is an error here, like [`Session::plan`]: it could never
    /// execute.
    pub fn typecheck(&self, sql: &str) -> Result<Inference> {
        self.typecheck_with(sql, &[])
    }

    /// [`Session::typecheck`] with positional `?` bind values.
    pub fn typecheck_with(&self, sql: &str, binds: &[Datum]) -> Result<Inference> {
        let plan = self.plan(sql, binds)?;
        Ok(self.typecheck_plan(&plan))
    }

    /// [`Session::typecheck`] over an already-built plan (the workload
    /// harness constructs some plans directly, e.g. NoBench Q11).
    pub fn typecheck_plan(&self, plan: &fsdm_store::Query) -> Inference {
        let start = Instant::now();
        let inf = check_plan(&self.db, plan);
        metric::PLANCK_CHECKS.inc();
        let errors = inf.errors() as u64;
        if errors > 0 {
            metric::PLANCK_ERRORS.add(errors);
        }
        let warnings = inf
            .diagnostics
            .iter()
            .filter(|d| d.severity == fsdm_analyze::Severity::Warning)
            .count() as u64;
        if warnings > 0 {
            metric::PLANCK_WARNINGS.add(warnings);
        }
        metric::PLANCK_INFER_NS.record(start.elapsed().as_nanos() as u64);
        inf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsdm_analyze::Code;

    /// `planck.checks` is process-global: the tests of this module take
    /// turns so the exact-delta assertion below sees only its own call.
    static TYPECHECKS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[expect(
        clippy::disallowed_methods,
        reason = "TYPECHECKS is a serializer: a test holds its turn for its whole body"
    )]
    fn turn() -> std::sync::MutexGuard<'static, ()> {
        TYPECHECKS.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn session() -> Session {
        let mut s = Session::new();
        s.execute("CREATE TABLE po (did NUMBER, jdoc JSON)").unwrap();
        s.execute(r#"INSERT INTO po VALUES (1, '{"reference": "R1", "price": 10}')"#).unwrap();
        s
    }

    #[test]
    fn typecheck_infers_statement_schema() {
        let _turn = turn();
        let s = session();
        let inf = s.typecheck("SELECT did FROM po WHERE did > 0").unwrap();
        assert!(inf.diagnostics.is_empty(), "{:?}", inf.diagnostics);
        assert_eq!(inf.schema.render(), "did:float?");
    }

    #[test]
    fn typecheck_flags_null_comparison() {
        let _turn = turn();
        let s = session();
        let inf = s.typecheck("SELECT did FROM po WHERE did = NULL").unwrap();
        assert_eq!(inf.diagnostics.len(), 1);
        assert_eq!(inf.diagnostics[0].code, Code::NullComparison);
        assert_eq!(inf.errors(), 0, "null comparison is a warning, not an error");
    }

    #[test]
    fn typecheck_counts_into_the_planck_metrics() {
        let _turn = turn();
        let s = session();
        let snap = |name: &str| fsdm_obs::snapshot().counters.get(name).copied().unwrap_or(0);
        let before = snap(fsdm_obs::catalog::PLANCK_CHECKS);
        s.typecheck("SELECT did FROM po").unwrap();
        assert_eq!(snap(fsdm_obs::catalog::PLANCK_CHECKS), before + 1);
    }

    #[test]
    fn non_planning_statements_error() {
        let _turn = turn();
        let s = session();
        assert!(s.typecheck("CREATE TABLE x (a NUMBER)").is_err());
    }
}
