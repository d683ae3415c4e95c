//! Tier-1: planck inference soundness. Over arbitrary generated plans on
//! the NoBench corpus, the inferred output schema must agree with what
//! the executor actually materializes — same column names, every cell
//! admitted by the inferred scalar type, and a column inferred
//! non-nullable must never materialize SQL NULL (nullability is an
//! over-approximation, never an under-approximation). The same generator
//! then drives the optimizer contract: every rewrite is translation-valid
//! (schema-equivalent, checked again here on top of `optimize()`'s own
//! `debug_assert!`) and `optimize` is idempotent, on generated plans and
//! on every workload query — each of which also meets the zero-error
//! budget of the FA path lint and the PK type-check.

use fsdm_analyze::{render_text, Code, Diagnostic};
use fsdm_bench::setup::{
    add_nobench_vcs, bind_datum, nobench_guided_db, nobench_q11_plan, nobench_q5_bind,
    olap_guided_db, olap_queries, scan_rooted_row_operators,
};
use fsdm_store::expr::ArithOp;
use fsdm_store::optimizer::optimize;
use fsdm_store::query::{AggSpec, SortKey, WindowFun};
use fsdm_store::typecheck::{infer, rewrite_violations};
use fsdm_store::{AggFun, CmpOp, Database, Datum, Expr, Query, Run};
use fsdm_workloads::nobench;
use proptest::prelude::*;
use std::sync::OnceLock;

const N: usize = 80;

/// One shared NoBench database (with the Figure 6 virtual columns), so
/// the per-case cost is plan building, not corpus ingestion.
fn db() -> &'static Database {
    static DB: OnceLock<Database> = OnceLock::new();
    DB.get_or_init(|| {
        let mut s = nobench_guided_db(N);
        add_nobench_vcs(&mut s);
        s.db
    })
}

/// What the generator tracks about each output column — just enough to
/// build well-typed expressions on top (the inference pass itself is the
/// system under test, so the generator keeps its own books).
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Num,
    Str,
    Json,
}

/// A decision tape: the proptest byte vector consumed as a stream of
/// bounded choices. Exhausted tapes read as zero, so every prefix is a
/// valid (shorter) plan program.
struct Tape<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Tape<'_> {
    fn next(&mut self) -> u8 {
        let b = self.bytes.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        b
    }

    fn pick(&mut self, n: usize) -> usize {
        self.next() as usize % n.max(1)
    }
}

fn cols_of(kinds: &[Kind], want: Kind) -> Vec<usize> {
    kinds.iter().enumerate().filter_map(|(i, k)| (*k == want).then_some(i)).collect()
}

/// A numeric-valued expression over the current schema. The generator
/// guarantees at least one numeric column survives every operator, so
/// the column arm is always available.
fn num_expr(tape: &mut Tape, kinds: &[Kind], depth: usize) -> Expr {
    let nums = cols_of(kinds, Kind::Num);
    let jsons = cols_of(kinds, Kind::Json);
    match tape.pick(if depth > 0 { 4 } else { 3 }) {
        0 => Expr::Lit(Datum::from((tape.next() as i64) - 128)),
        1 | 2 if !nums.is_empty() => Expr::Col(nums[tape.pick(nums.len())]),
        2 if !jsons.is_empty() => Expr::json_value(
            jsons[tape.pick(jsons.len())],
            fsdm_sqljson::parse_path("$.num").unwrap(),
            fsdm_sqljson::SqlType::Number,
        ),
        3 => {
            let op = [ArithOp::Add, ArithOp::Sub, ArithOp::Mul][tape.pick(3)];
            Expr::Arith(
                Box::new(num_expr(tape, kinds, depth - 1)),
                op,
                Box::new(num_expr(tape, kinds, depth - 1)),
            )
        }
        _ => Expr::Lit(Datum::from(tape.next() as i64)),
    }
}

/// A string-valued expression; falls back to a literal when no string
/// column is in scope.
fn str_expr(tape: &mut Tape, kinds: &[Kind]) -> Expr {
    let strs = cols_of(kinds, Kind::Str);
    let jsons = cols_of(kinds, Kind::Json);
    match tape.pick(3) {
        0 if !strs.is_empty() => Expr::Col(strs[tape.pick(strs.len())]),
        1 if !jsons.is_empty() => Expr::json_value(
            jsons[tape.pick(jsons.len())],
            fsdm_sqljson::parse_path("$.str1").unwrap(),
            fsdm_sqljson::SqlType::Varchar2(32),
        ),
        _ => Expr::Lit(Datum::Str(format!("s{}", tape.next() % 10))),
    }
}

/// A boolean predicate over the current schema, type-consistent by
/// construction so inference reports zero errors on every generated plan.
fn pred(tape: &mut Tape, kinds: &[Kind], depth: usize) -> Expr {
    let jsons = cols_of(kinds, Kind::Json);
    let nums = cols_of(kinds, Kind::Num);
    match tape.pick(if depth > 0 { 7 } else { 5 }) {
        0 => {
            let op =
                [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][tape.pick(6)];
            Expr::cmp(num_expr(tape, kinds, 1), op, num_expr(tape, kinds, 1))
        }
        1 => {
            let op = [CmpOp::Eq, CmpOp::Ne][tape.pick(2)];
            Expr::cmp(str_expr(tape, kinds), op, str_expr(tape, kinds))
        }
        2 if !jsons.is_empty() => {
            let path = ["$.str1", "$.num", "$.dyn1"][tape.pick(3)];
            Expr::json_exists(
                jsons[tape.pick(jsons.len())],
                fsdm_sqljson::parse_path(path).unwrap(),
            )
        }
        3 => Expr::IsNull(Box::new(num_expr(tape, kinds, 0))),
        4 if !nums.is_empty() => Expr::InList(
            Box::new(Expr::Col(nums[tape.pick(nums.len())])),
            vec![Datum::from(1i64), Datum::from(2i64)],
        ),
        5 => Expr::Not(Box::new(pred(tape, kinds, depth - 1))),
        6 => {
            let a = pred(tape, kinds, depth - 1);
            let b = pred(tape, kinds, depth - 1);
            if tape.next().is_multiple_of(2) {
                Expr::And(Box::new(a), Box::new(b))
            } else {
                Expr::Or(Box::new(a), Box::new(b))
            }
        }
        _ => Expr::Like(Box::new(str_expr(tape, kinds)), "%a%".to_string()),
    }
}

/// Consume the tape into a plan over the `nobench` scan schema
/// `[did:num, jdoc:json, nb$str1:str, nb$num:num, nb$dyn1:num]`,
/// stacking 0–3 operators plus an optional self-join. Every plan built
/// here is well-typed: the soundness property asserts inference agrees,
/// not merely that it is total.
fn build_plan(tape: &mut Tape) -> Query {
    let mut kinds = vec![Kind::Num, Kind::Json, Kind::Str, Kind::Num, Kind::Num];
    let mut plan = if tape.next().is_multiple_of(2) {
        Query::scan("nobench")
    } else {
        Query::scan_where("nobench", pred(tape, &kinds, 2))
    };
    let mut windowed = false;
    for _ in 0..tape.pick(4) {
        match tape.pick(6) {
            0 => plan = plan.filter(pred(tape, &kinds, 2)),
            1 => {
                // Project: item 0 is always numeric so later operators
                // keep a numeric column to build on
                let n = 1 + tape.pick(3);
                let mut exprs = Vec::new();
                let mut new_kinds = Vec::new();
                for j in 0..n {
                    let name = format!("p{j}");
                    if j > 0 && tape.next().is_multiple_of(2) {
                        let i = tape.pick(kinds.len());
                        exprs.push((name, Expr::Col(i)));
                        new_kinds.push(kinds[i]);
                    } else {
                        exprs.push((name, num_expr(tape, &kinds, 2)));
                        new_kinds.push(Kind::Num);
                    }
                }
                plan = Query::Project { input: Box::new(plan), exprs };
                kinds = new_kinds;
            }
            2 => {
                // GroupBy: key over a non-Json column (the executor
                // never hashes raw JSON cells), COUNT(*) plus one more
                // aggregate
                let hashable: Vec<usize> = kinds
                    .iter()
                    .enumerate()
                    .filter_map(|(i, k)| (*k != Kind::Json).then_some(i))
                    .collect();
                let key = hashable[tape.pick(hashable.len())];
                let mut aggs = vec![AggSpec::count_star("cnt")];
                let extra_kind = if tape.next().is_multiple_of(2) {
                    aggs.push(AggSpec::of("total", AggFun::Sum, num_expr(tape, &kinds, 1)));
                    Kind::Num
                } else {
                    aggs.push(AggSpec::of("mn", AggFun::Min, str_expr(tape, &kinds)));
                    Kind::Str
                };
                plan = Query::GroupBy {
                    input: Box::new(plan),
                    keys: vec![("k".to_string(), Expr::Col(key))],
                    aggs,
                };
                kinds = vec![kinds[key], Kind::Num, extra_kind];
            }
            3 => {
                // Sort over 1–2 distinct non-Json columns
                let mut sortable: Vec<usize> = kinds
                    .iter()
                    .enumerate()
                    .filter_map(|(i, k)| (*k != Kind::Json).then_some(i))
                    .collect();
                let mut keys = Vec::new();
                for _ in 0..(1 + tape.pick(2)).min(sortable.len()) {
                    let i = sortable.remove(tape.pick(sortable.len()));
                    keys.push(if tape.next().is_multiple_of(2) {
                        SortKey::asc(Expr::Col(i))
                    } else {
                        SortKey::desc(Expr::Col(i))
                    });
                }
                plan = plan.sort(keys);
            }
            4 => plan = plan.limit(1 + tape.pick(16)),
            _ => {
                if !windowed {
                    windowed = true;
                    let order = cols_of(&kinds, Kind::Num)[0];
                    plan = Query::Window {
                        input: Box::new(plan),
                        name: "lagv".to_string(),
                        fun: WindowFun::Lag {
                            expr: num_expr(tape, &kinds, 1),
                            offset: 1,
                            default: None,
                        },
                        order: vec![SortKey::asc(Expr::Col(order))],
                    };
                    kinds.push(Kind::Num);
                }
            }
        }
    }
    if tape.next().is_multiple_of(4) {
        // numeric-keyed self equi-join; the right side projects to a
        // fresh name so the joined schema stays duplicate-free
        let right = Query::Project {
            input: Box::new(Query::scan("nobench")),
            exprs: vec![("rdid".to_string(), Expr::Col(0))],
        };
        let nums = cols_of(&kinds, Kind::Num);
        plan = Query::HashJoin {
            left: Box::new(plan),
            right: Box::new(right),
            left_key: nums[tape.pick(nums.len())],
            right_key: 0,
        };
        kinds.push(Kind::Num);
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Inference soundness: zero errors on every generated (well-typed)
    /// plan, executed column names match the inferred schema exactly,
    /// every materialized cell is admitted by the inferred type, and no
    /// column inferred non-nullable ever materializes NULL.
    #[test]
    fn inferred_schema_agrees_with_execution(
        bytes in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let db = db();
        let mut tape = Tape { bytes: &bytes, pos: 0 };
        let plan = build_plan(&mut tape);
        let inf = infer(db, &plan);
        prop_assert_eq!(
            inf.errors(), 0,
            "generator emitted an ill-typed plan:\n{}\n{:?}", plan.render(), inf.diagnostics
        );
        let res = db.execute(&plan).expect("a zero-error plan must execute");
        let names: Vec<&str> = inf.schema.cols.iter().map(|c| c.name.as_str()).collect();
        let got: Vec<&str> = res.columns.iter().map(String::as_str).collect();
        prop_assert_eq!(&got, &names, "column names diverge on\n{}", plan.render());
        for row in &res.rows {
            prop_assert_eq!(row.len(), inf.schema.cols.len());
            for (d, c) in row.iter().zip(&inf.schema.cols) {
                if d.is_null() {
                    prop_assert!(
                        c.nullable,
                        "column `{}` inferred non-nullable but materialized NULL in\n{}",
                        c.name, plan.render()
                    );
                } else {
                    prop_assert!(
                        c.ty.admits(d),
                        "column `{}`: {:?} not admitted by inferred {:?} in\n{}",
                        c.name, d, c.ty, plan.render()
                    );
                }
            }
        }
    }

    /// The optimizer contract on arbitrary plans: every rewrite is
    /// translation-valid, idempotent, and result-identical.
    #[test]
    fn optimize_is_translation_valid_and_idempotent(
        bytes in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let db = db();
        let mut tape = Tape { bytes: &bytes, pos: 0 };
        let plan = build_plan(&mut tape);
        let once = optimize(db, plan.clone());
        let violations = rewrite_violations(db, &plan, &once);
        prop_assert!(
            violations.is_empty(),
            "rewrite of\n{}\ninto\n{}\nviolates: {violations:?}", plan.render(), once.render()
        );
        let twice = optimize(db, once.clone());
        prop_assert_eq!(
            format!("{once:?}"), format!("{twice:?}"),
            "optimize is not idempotent on\n{}", plan.render()
        );
        let raw = db.execute_unoptimized(&plan).expect("raw plan executes");
        let opt = db.execute_unoptimized(&once).expect("optimized plan executes");
        prop_assert_eq!(raw.columns, opt.columns);
        prop_assert_eq!(raw.rows, opt.rows, "rewrite changed results of\n{}", plan.render());
    }
}

/// `optimize` is idempotent and translation-valid on every workload
/// query — NoBench Q1–Q11 (both Q11 variants) and OLAP Table-13 plus the
/// registered view plans — and each of those 23 plans, walked once by
/// `Session::typecheck_plan`, has no error-severity FA or PK finding: a
/// workload path no document has (FA001) or an ill-typed plan fails here.
/// Executed, none reports an operator of a scan-rooted chain on the row
/// evaluator.
/// The corpora are large enough that FA001 means a real defect: NoBench
/// documents 11, 22 and 55 carry the sparse clusters Q3, Q4 and Q9 name,
/// and every purchase order holds every path the OLAP set reads.
#[test]
fn workload_queries_optimize_idempotently() {
    let mut plans: Vec<(String, &'static fsdm_sql::Session, Query)> = Vec::new();

    static NB: OnceLock<fsdm_sql::Session> = OnceLock::new();
    let nb = NB.get_or_init(|| {
        let mut s = nobench_guided_db(N);
        add_nobench_vcs(&mut s);
        s
    });
    for q in 1..=10 {
        let sql = nobench::query_sql(q, N);
        let binds = if q == 5 { vec![nobench_q5_bind(N)] } else { vec![] };
        plans.push((format!("nobench:Q{q}"), nb, nb.plan(&sql, &binds).unwrap()));
    }
    for vc in [false, true] {
        plans.push((format!("nobench:Q11(vc={vc})"), nb, nobench_q11_plan(N, vc)));
    }

    static OLAP: OnceLock<fsdm_sql::Session> = OnceLock::new();
    let olap = OLAP.get_or_init(|| olap_guided_db(60));
    for q in olap_queries(60) {
        let binds: Vec<Datum> = q.binds.iter().map(|b| bind_datum(b)).collect();
        plans.push((format!("olap:Q{}", q.id), olap, olap.plan(&q.sql, &binds).unwrap()));
    }
    for view in ["po_mv", "po_item_dmdv"] {
        plans.push((format!("view:{view}"), olap, olap.db.view(view).unwrap().clone()));
    }

    assert_eq!(plans.len(), 23, "workload sweep lost queries");
    let mut findings: Vec<(String, Diagnostic)> = Vec::new();
    for (label, session, plan) in plans {
        let inf = session.typecheck_plan(&plan);
        assert_eq!(inf.errors(), 0, "{label}:\n{}", render_text(&inf.diagnostics));
        findings.extend(inf.diagnostics.into_iter().map(|d| (label.clone(), d)));
        let db = &session.db;
        let once = optimize(db, plan.clone());
        let violations = rewrite_violations(db, &plan, &once);
        assert!(violations.is_empty(), "{label}: {violations:?}");
        let twice = optimize(db, once.clone());
        assert_eq!(
            format!("{once:?}"),
            format!("{twice:?}"),
            "{label}: optimize re-fired on its own output"
        );
        // with the spine on, every operator of a scan-rooted chain runs on it
        let (_, report) = db.run(&plan, &Run::default()).expect("workload plan executes");
        let stray = scan_rooted_row_operators(&report.root);
        assert!(stray.is_empty(), "{label}: {stray:?} on the row evaluator\n{}", report.render());
    }
    // the advisory findings the lint exists for: NoBench's sparse paths
    // sit at ~1 % frequency (FA005), and each view body's paths are
    // linted under the view's own label, JSON_TABLE columns composed
    // onto their row path
    let reported =
        |label: &str, path: &str| findings.iter().any(|(l, d)| l == label && d.path == path);
    assert!(
        findings.iter().any(|(l, d)| l.starts_with("nobench:") && d.code == Code::LowFrequencyPath),
        "no FA005 on the NoBench sparse paths"
    );
    assert!(reported("view:po_mv", "$.purchaseOrder.reference"));
    assert!(reported("view:po_item_dmdv", "$.purchaseOrder.costcenter"));
}
