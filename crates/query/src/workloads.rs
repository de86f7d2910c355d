//! Workload generators reproducing the paper's JOB benchmarks (§8.1).
//!
//! * **JOB-like**: 113 queries instantiated from 33 join templates over the
//!   mini-IMDb schema (3–16 joins, averaging ≈8), with variants differing
//!   in filter constants — the structure of the real Join Order Benchmark.
//! * **Ext-JOB-like**: 24 queries from 8 *disjoint* templates — the
//!   out-of-distribution generalization workload of §8.5.
//!
//! Splits mirror §8.1: a seeded **random split** (94/19) and the
//! **slow-template split** (the slowest templates under the expert held
//! out).

use crate::ir::{CmpOp, Filter, JoinEdge, Predicate, Query, QueryTable};
use balsa_storage::Catalog;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// A set of queries over one database.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The queries, ids equal to their position.
    pub queries: Vec<Query>,
}

impl Workload {
    /// Queries grouped by template id: `(template, query indices)`.
    pub fn by_template(&self) -> Vec<(u32, Vec<usize>)> {
        let mut groups: Vec<(u32, Vec<usize>)> = Vec::new();
        for (i, q) in self.queries.iter().enumerate() {
            match groups.iter_mut().find(|(t, _)| *t == q.template) {
                Some((_, v)) => v.push(i),
                None => groups.push((q.template, vec![i])),
            }
        }
        groups
    }
}

/// A train/test split over a workload, stored as query indices.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Split {
    /// Training query indices.
    pub train: Vec<usize>,
    /// Held-out test query indices.
    pub test: Vec<usize>,
}

impl Split {
    /// Seeded random split with `test_count` held-out queries
    /// (the paper's "Random Split": 94 train / 19 test on JOB).
    pub fn random(n: usize, test_count: usize, seed: u64) -> Self {
        let mut idx: Vec<usize> = (0..n).collect();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5911F7);
        for i in (1..idx.len()).rev() {
            let j = rng.random_range(0..=i);
            idx.swap(i, j);
        }
        let test = idx.split_off(n - test_count.min(n));
        let mut train = idx;
        train.sort_unstable();
        let mut test = test;
        test.sort_unstable();
        Self { train, test }
    }

    /// Slow-template split (§8.5): hold out all queries of the
    /// `n_templates` templates with the largest summed runtime. Sums
    /// compare by `f64::total_cmp`, so a NaN runtime places its template
    /// deterministically instead of panicking.
    pub fn slowest_templates(workload: &Workload, runtimes: &[f64], n_templates: usize) -> Self {
        let mut groups = workload.by_template();
        groups.sort_by(|a, b| {
            let ra: f64 = a.1.iter().map(|&i| runtimes[i]).sum();
            let rb: f64 = b.1.iter().map(|&i| runtimes[i]).sum();
            rb.total_cmp(&ra)
        });
        let mut test = Vec::new();
        let mut train = Vec::new();
        for (gi, (_, qs)) in groups.iter().enumerate() {
            if gi < n_templates {
                test.extend(qs.iter().copied());
            } else {
                train.extend(qs.iter().copied());
            }
        }
        train.sort_unstable();
        test.sort_unstable();
        Self { train, test }
    }
}

// ---------------------------------------------------------------------------
// Query construction DSL
// ---------------------------------------------------------------------------

struct Qb<'a> {
    catalog: &'a Catalog,
    tables: Vec<QueryTable>,
    joins: Vec<JoinEdge>,
    filters: Vec<Filter>,
}

impl<'a> Qb<'a> {
    fn new(catalog: &'a Catalog) -> Self {
        Self {
            catalog,
            tables: Vec::new(),
            joins: Vec::new(),
            filters: Vec::new(),
        }
    }

    fn has(&self, alias: &str) -> bool {
        self.tables.iter().any(|t| t.alias == alias)
    }

    fn qt(&self, alias: &str) -> usize {
        self.tables
            .iter()
            .position(|t| t.alias == alias)
            .unwrap_or_else(|| panic!("alias {alias} not in query"))
    }

    fn col(&self, alias: &str, col: &str) -> (usize, usize) {
        let qt = self.qt(alias);
        let tid = self.tables[qt].table;
        let cid = self
            .catalog
            .table(tid)
            .column_id(col)
            .unwrap_or_else(|| panic!("{}.{col} missing", self.catalog.table(tid).name));
        (qt, cid)
    }

    /// Adds `table AS alias` if not present.
    fn table(&mut self, table: &str, alias: &str) {
        if self.has(alias) {
            return;
        }
        let tid = self
            .catalog
            .table_id(table)
            .unwrap_or_else(|| panic!("unknown table {table}"));
        self.tables.push(QueryTable {
            table: tid,
            alias: alias.to_string(),
        });
    }

    /// Adds an equi-join edge `a.ac = b.bc` (idempotent).
    fn join(&mut self, a: &str, ac: &str, b: &str, bc: &str) {
        let (la, ca) = self.col(a, ac);
        let (lb, cb) = self.col(b, bc);
        let edge = JoinEdge {
            left_qt: la,
            left_col: ca,
            right_qt: lb,
            right_col: cb,
        };
        if !self.joins.contains(&edge) {
            self.joins.push(edge);
        }
    }

    fn filter(&mut self, alias: &str, col: &str, pred: Predicate) {
        let (qt, cid) = self.col(alias, col);
        self.filters.push(Filter { qt, col: cid, pred });
    }

    fn build(self, id: u32, name: String, template: u32) -> Query {
        let q = Query {
            id,
            name,
            template,
            tables: self.tables,
            joins: self.joins,
            filters: self.filters,
        };
        q.validate(self.catalog)
            .unwrap_or_else(|e| panic!("template bug in {}: {e}", q.name));
        q
    }
}

/// Join-graph "arms" around the central `title AS t` reference. Arms are
/// composable and idempotent; higher arms pull in their prerequisites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arm {
    /// `kind_type kt` via `t.kind_id`.
    Kt,
    /// `movie_companies mc`.
    Mc,
    /// `mc` + `company_name cn`.
    McCn,
    /// `mc` + `cn` + `company_type ct`.
    McFull,
    /// `cast_info ci`.
    Ci,
    /// `ci` + `name n`.
    CiN,
    /// `ci` + `n` + `role_type rt` + `char_name chn`.
    CiFull,
    /// `movie_info mi`.
    Mi,
    /// `mi` + `info_type it1`.
    MiFull,
    /// `movie_info_idx mi_idx`.
    Mii,
    /// `mi_idx` + `info_type it2`.
    MiiFull,
    /// `movie_keyword mk`.
    Mk,
    /// `mk` + `keyword k`.
    MkFull,
    /// `movie_link ml` + `link_type lt`.
    MlFull,
    /// `ml` + second `title t2` (self-join through movie_link).
    MlT2,
    /// `complete_cast cc` + `comp_cast_type cct1`.
    CcFull,
    /// `cc` + second `comp_cast_type cct2` on status_id.
    Cc2,
    /// `aka_name an` via `n` (requires a cast arm).
    AkaN,
    /// `aka_title at`.
    AkaT,
    /// `person_info pi` + `info_type it3` via `n` (requires a cast arm).
    Pi,
}

fn apply_arm(qb: &mut Qb, arm: Arm) {
    use Arm::*;
    match arm {
        Kt => {
            qb.table("kind_type", "kt");
            qb.join("t", "kind_id", "kt", "id");
        }
        Mc => {
            qb.table("movie_companies", "mc");
            qb.join("mc", "movie_id", "t", "id");
        }
        McCn => {
            apply_arm(qb, Mc);
            qb.table("company_name", "cn");
            qb.join("mc", "company_id", "cn", "id");
        }
        McFull => {
            apply_arm(qb, McCn);
            qb.table("company_type", "ct");
            qb.join("mc", "company_type_id", "ct", "id");
        }
        Ci => {
            qb.table("cast_info", "ci");
            qb.join("ci", "movie_id", "t", "id");
        }
        CiN => {
            apply_arm(qb, Ci);
            qb.table("name", "n");
            qb.join("ci", "person_id", "n", "id");
        }
        CiFull => {
            apply_arm(qb, CiN);
            qb.table("role_type", "rt");
            qb.join("ci", "role_id", "rt", "id");
            qb.table("char_name", "chn");
            qb.join("ci", "person_role_id", "chn", "id");
        }
        Mi => {
            qb.table("movie_info", "mi");
            qb.join("mi", "movie_id", "t", "id");
        }
        MiFull => {
            apply_arm(qb, Mi);
            qb.table("info_type", "it1");
            qb.join("mi", "info_type_id", "it1", "id");
        }
        Mii => {
            qb.table("movie_info_idx", "mi_idx");
            qb.join("mi_idx", "movie_id", "t", "id");
        }
        MiiFull => {
            apply_arm(qb, Mii);
            qb.table("info_type", "it2");
            qb.join("mi_idx", "info_type_id", "it2", "id");
        }
        Mk => {
            qb.table("movie_keyword", "mk");
            qb.join("mk", "movie_id", "t", "id");
        }
        MkFull => {
            apply_arm(qb, Mk);
            qb.table("keyword", "k");
            qb.join("mk", "keyword_id", "k", "id");
        }
        MlFull => {
            qb.table("movie_link", "ml");
            qb.join("ml", "movie_id", "t", "id");
            qb.table("link_type", "lt");
            qb.join("ml", "link_type_id", "lt", "id");
        }
        MlT2 => {
            if !qb.has("ml") {
                qb.table("movie_link", "ml");
                qb.join("ml", "movie_id", "t", "id");
            }
            qb.table("title", "t2");
            qb.join("ml", "linked_movie_id", "t2", "id");
        }
        CcFull => {
            qb.table("complete_cast", "cc");
            qb.join("cc", "movie_id", "t", "id");
            qb.table("comp_cast_type", "cct1");
            qb.join("cc", "subject_id", "cct1", "id");
        }
        Cc2 => {
            apply_arm(qb, CcFull);
            qb.table("comp_cast_type", "cct2");
            qb.join("cc", "status_id", "cct2", "id");
        }
        AkaN => {
            qb.table("aka_name", "an");
            qb.join("an", "person_id", "n", "id");
        }
        AkaT => {
            qb.table("aka_title", "at");
            qb.join("at", "movie_id", "t", "id");
        }
        Pi => {
            qb.table("person_info", "pi");
            qb.join("pi", "person_id", "n", "id");
            qb.table("info_type", "it3");
            qb.join("pi", "info_type_id", "it3", "id");
        }
    }
}

/// Filter slots whose constants are drawn per-variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fs {
    /// `t.production_year >= Y`, Y ∈ [1980, 2014].
    YearGe,
    /// `t.production_year BETWEEN Y AND Y+W`.
    YearBetween,
    /// `t.kind_id = K` (weighted toward common kinds).
    KindEq,
    /// `cn.country_code = C` (zipf-weighted).
    CountryEq,
    /// Correlated pair: `it1.id = T AND mi.info BETWEEN T*100 AND T*100+19`.
    /// True selectivity is high given the type; an independence-assuming
    /// estimator multiplies the marginals and underestimates badly.
    MiInfoCorr,
    /// Anti-correlated pair: the `mi.info` band belongs to a *different*
    /// info type, so the true result is (near-)empty while the estimator
    /// predicts plenty of rows.
    MiInfoAnti,
    /// `k.keyword IN (...)` with 3–8 random keywords.
    KwIn,
    /// `n.gender = G`.
    GenderEq,
    /// `ct.kind = 0` (production companies) or a rarer kind.
    CtEq,
    /// `rt.role = R` (zipf-ish).
    RoleEq,
    /// `mi_idx.info >= R` (a "rating above" filter) plus `it2.id` pinned
    /// to a rating type.
    RatingGe,
    /// `lt.link = L`.
    LtEq,
    /// `cct1.kind = K`.
    CctEq,
    /// `mc.note < X`.
    McNote,
    /// `ci.note = X`.
    CiNote,
    /// `n.name_pcode_cf = P` (very selective equality).
    PcodeEq,
    /// `t.season_nr >= S` (selects episodes; NULLs drop out).
    SeasonGe,
    /// `t2.production_year >= Y` (for the self-join arm).
    T2YearGe,
}

fn apply_filter(qb: &mut Qb, fs: Fs, rng: &mut SmallRng) {
    use Predicate::*;
    match fs {
        Fs::YearGe => {
            let y = rng.random_range(1980..2015i64);
            qb.filter("t", "production_year", Cmp(CmpOp::Ge, y));
        }
        Fs::YearBetween => {
            let y = rng.random_range(1950..2010i64);
            let w = rng.random_range(3..25i64);
            qb.filter("t", "production_year", Between(y, y + w));
        }
        Fs::KindEq => {
            let k = if rng.random_bool(0.5) {
                // the common kinds in the generator
                *[0i64, 6].get(rng.random_range(0..2usize)).unwrap()
            } else {
                rng.random_range(0..7i64)
            };
            qb.filter("t", "kind_id", Cmp(CmpOp::Eq, k));
        }
        Fs::CountryEq => {
            let c = rng.random_range(0..8i64);
            qb.filter("cn", "country_code", Cmp(CmpOp::Eq, c));
        }
        Fs::MiInfoCorr => {
            let ty = rng.random_range(0..15i64);
            qb.filter("it1", "id", Cmp(CmpOp::Eq, ty));
            qb.filter("mi", "info", Between(ty * 100, ty * 100 + 19));
        }
        Fs::MiInfoAnti => {
            let ty = rng.random_range(0..10i64);
            let other = ty + 20 + rng.random_range(0..20i64);
            qb.filter("it1", "id", Cmp(CmpOp::Eq, ty));
            qb.filter("mi", "info", Between(other * 100, other * 100 + 19));
        }
        Fs::KwIn => {
            let n = rng.random_range(3..=8usize);
            let mut vals: Vec<i64> = (0..n).map(|_| rng.random_range(0..1500i64)).collect();
            vals.sort_unstable();
            vals.dedup();
            qb.filter("k", "keyword", InList(vals));
        }
        Fs::GenderEq => {
            let g = i64::from(rng.random_bool(0.3));
            qb.filter("n", "gender", Cmp(CmpOp::Eq, g));
        }
        Fs::CtEq => {
            let k = if rng.random_bool(0.6) {
                0
            } else {
                rng.random_range(1..4i64)
            };
            qb.filter("ct", "kind", Cmp(CmpOp::Eq, k));
        }
        Fs::RoleEq => {
            let r = rng.random_range(0..6i64);
            qb.filter("rt", "role", Cmp(CmpOp::Eq, r));
        }
        Fs::RatingGe => {
            let r = rng.random_range(40..95i64);
            qb.filter("mi_idx", "info", Cmp(CmpOp::Ge, r));
            let ty = 99 + rng.random_range(0..4i64);
            qb.filter("it2", "id", Cmp(CmpOp::Eq, ty));
        }
        Fs::LtEq => {
            let l = rng.random_range(0..18i64);
            qb.filter("lt", "link", Cmp(CmpOp::Eq, l));
        }
        Fs::CctEq => {
            let k = rng.random_range(0..4i64);
            qb.filter("cct1", "kind", Cmp(CmpOp::Eq, k));
        }
        Fs::McNote => {
            let x = rng.random_range(5..25i64);
            qb.filter("mc", "note", Cmp(CmpOp::Lt, x));
        }
        Fs::CiNote => {
            let x = rng.random_range(0..50i64);
            qb.filter("ci", "note", Cmp(CmpOp::Eq, x));
        }
        Fs::PcodeEq => {
            let p = rng.random_range(0..500i64);
            qb.filter("n", "name_pcode_cf", Cmp(CmpOp::Eq, p));
        }
        Fs::SeasonGe => {
            let s = rng.random_range(2..15i64);
            qb.filter("t", "season_nr", Cmp(CmpOp::Ge, s));
        }
        Fs::T2YearGe => {
            let y = rng.random_range(1980..2015i64);
            qb.filter("t2", "production_year", Cmp(CmpOp::Ge, y));
        }
    }
}

struct TemplateSpec {
    arms: &'static [Arm],
    filters: &'static [Fs],
}

/// The 33 JOB-like templates. Table counts (incl. `t`) range 4–14 with
/// an average of ≈8 joins, matching §8.1.
const JOB_TEMPLATES: &[TemplateSpec] = {
    use Arm::*;
    use Fs::*;
    &[
        // -- small (4-5 tables) --
        TemplateSpec {
            arms: &[McFull],
            filters: &[CountryEq, CtEq, YearGe],
        },
        TemplateSpec {
            arms: &[MkFull, Kt],
            filters: &[KwIn, KindEq],
        },
        TemplateSpec {
            arms: &[MiFull, Kt],
            filters: &[MiInfoCorr, KindEq, YearBetween],
        },
        TemplateSpec {
            arms: &[MiiFull, Kt],
            filters: &[RatingGe, KindEq],
        },
        TemplateSpec {
            arms: &[CiN, Kt],
            filters: &[GenderEq, KindEq, CiNote, YearGe],
        },
        TemplateSpec {
            arms: &[McCn, Mk],
            filters: &[CountryEq, McNote, YearGe],
        },
        // -- medium (5-7 tables) --
        TemplateSpec {
            arms: &[McCn, MkFull],
            filters: &[KwIn, CountryEq, YearBetween],
        },
        TemplateSpec {
            arms: &[MkFull, MiFull],
            filters: &[KwIn, MiInfoCorr, YearGe],
        },
        TemplateSpec {
            arms: &[MiFull, MiiFull],
            filters: &[MiInfoCorr, RatingGe, YearBetween],
        },
        TemplateSpec {
            arms: &[McFull, MiFull],
            filters: &[CtEq, MiInfoCorr, YearBetween],
        },
        TemplateSpec {
            arms: &[CiN, MkFull],
            filters: &[KwIn, GenderEq, CiNote],
        },
        TemplateSpec {
            arms: &[CiN, Pi, AkaN],
            filters: &[PcodeEq, GenderEq, YearBetween],
        },
        TemplateSpec {
            arms: &[McFull, MlFull],
            filters: &[LtEq, CountryEq, YearGe],
        },
        TemplateSpec {
            arms: &[CiN, MiFull],
            filters: &[GenderEq, MiInfoCorr, YearGe],
        },
        TemplateSpec {
            arms: &[McCn, MiiFull, Kt],
            filters: &[CountryEq, RatingGe, KindEq],
        },
        TemplateSpec {
            arms: &[MkFull, CcFull],
            filters: &[KwIn, CctEq, YearGe],
        },
        // -- large (7-9 tables) --
        TemplateSpec {
            arms: &[CiFull, McCn],
            filters: &[RoleEq, CountryEq, CiNote],
        },
        TemplateSpec {
            arms: &[CiFull, CcFull],
            filters: &[CctEq, RoleEq, CiNote, YearGe],
        },
        TemplateSpec {
            arms: &[McFull, MiFull, MiiFull],
            filters: &[CtEq, MiInfoCorr, RatingGe, YearBetween],
        },
        TemplateSpec {
            arms: &[CiFull, MkFull],
            filters: &[KwIn, RoleEq, GenderEq],
        },
        TemplateSpec {
            arms: &[CiN, McCn, MkFull],
            filters: &[KwIn, CountryEq, GenderEq, YearBetween],
        },
        TemplateSpec {
            arms: &[McFull, MlFull, Kt],
            filters: &[LtEq, CtEq, KindEq, YearGe],
        },
        TemplateSpec {
            arms: &[CiN, AkaN, McCn, Kt],
            filters: &[CountryEq, GenderEq, KindEq],
        },
        TemplateSpec {
            arms: &[MiFull, MiiFull, MkFull],
            filters: &[MiInfoCorr, RatingGe, KwIn],
        },
        TemplateSpec {
            arms: &[CiN, Pi, MiFull],
            filters: &[GenderEq, MiInfoCorr, YearGe],
        },
        TemplateSpec {
            arms: &[McFull, CcFull, Kt],
            filters: &[CountryEq, CctEq, KindEq, YearBetween],
        },
        // -- extra large (9-14 tables) --
        TemplateSpec {
            arms: &[CiFull, McFull],
            filters: &[RoleEq, CountryEq, CtEq, YearGe],
        },
        TemplateSpec {
            arms: &[CiFull, McCn, MkFull],
            filters: &[KwIn, CountryEq, RoleEq, YearBetween],
        },
        TemplateSpec {
            arms: &[CiFull, MiFull, MiiFull],
            filters: &[RoleEq, MiInfoCorr, RatingGe],
        },
        TemplateSpec {
            arms: &[McFull, MiFull, MiiFull, MkFull],
            filters: &[CtEq, MiInfoCorr, RatingGe, KwIn, YearBetween],
        },
        TemplateSpec {
            arms: &[CiFull, McFull, MkFull],
            filters: &[KwIn, CountryEq, RoleEq, CiNote],
        },
        TemplateSpec {
            arms: &[CiFull, McFull, MiFull, Kt],
            filters: &[CountryEq, MiInfoCorr, KindEq, RoleEq],
        },
        TemplateSpec {
            arms: &[CiFull, McFull, MiFull, MiiFull, MkFull],
            filters: &[CountryEq, MiInfoCorr, RatingGe, KwIn, RoleEq, YearBetween],
        },
    ]
};

/// The 8 Ext-JOB-like templates: entirely different join shapes
/// (title self-joins via `movie_link`, double `comp_cast_type`,
/// `aka_title`, unusual combinations) — none appear in [`JOB_TEMPLATES`].
const EXT_JOB_TEMPLATES: &[TemplateSpec] = {
    use Arm::*;
    use Fs::*;
    &[
        TemplateSpec {
            arms: &[MlFull, MlT2],
            filters: &[LtEq, YearGe, T2YearGe],
        },
        TemplateSpec {
            arms: &[MlT2, MkFull],
            filters: &[KwIn, T2YearGe],
        },
        TemplateSpec {
            arms: &[Cc2, MkFull],
            filters: &[CctEq, KwIn, YearBetween],
        },
        TemplateSpec {
            arms: &[AkaT, MiFull],
            filters: &[MiInfoAnti, YearGe],
        },
        TemplateSpec {
            arms: &[AkaT, McCn, Kt],
            filters: &[CountryEq, KindEq, SeasonGe],
        },
        TemplateSpec {
            arms: &[Cc2, CiN],
            filters: &[CctEq, GenderEq, CiNote],
        },
        TemplateSpec {
            arms: &[MlT2, MiiFull],
            filters: &[RatingGe, T2YearGe, SeasonGe],
        },
        TemplateSpec {
            arms: &[AkaT, Cc2, Kt],
            filters: &[CctEq, KindEq, YearBetween],
        },
    ]
};

fn instantiate(
    catalog: &Catalog,
    spec: &TemplateSpec,
    id: u32,
    name: String,
    template: u32,
    rng: &mut SmallRng,
) -> Query {
    let mut qb = Qb::new(catalog);
    qb.table("title", "t");
    for &arm in spec.arms {
        apply_arm(&mut qb, arm);
    }
    for &fs in spec.filters {
        apply_filter(&mut qb, fs, rng);
    }
    qb.build(id, name, template)
}

/// Generates the 113-query JOB-like workload.
pub fn job_workload(catalog: &Catalog, seed: u64) -> Workload {
    let mut queries = Vec::with_capacity(113);
    let mut id = 0u32;
    for (ti, spec) in JOB_TEMPLATES.iter().enumerate() {
        // 33 templates x 3 variants = 99; the first 14 get a 4th variant
        // to reach JOB's 113 queries.
        let variants = if ti < 14 { 4 } else { 3 };
        for v in 0..variants {
            let mut rng =
                SmallRng::seed_from_u64(seed ^ (0x10B << 32) ^ ((ti as u64) << 8) ^ v as u64);
            let name = format!("job_{:02}{}", ti + 1, (b'a' + v as u8) as char);
            queries.push(instantiate(catalog, spec, id, name, ti as u32, &mut rng));
            id += 1;
        }
    }
    assert_eq!(queries.len(), 113);
    Workload { queries }
}

/// Generates the 24-query Ext-JOB-like workload (template ids continue
/// after the JOB templates so the two sets never collide).
pub fn ext_job_workload(catalog: &Catalog, seed: u64) -> Workload {
    let mut queries = Vec::with_capacity(24);
    let mut id = 0u32;
    for (ti, spec) in EXT_JOB_TEMPLATES.iter().enumerate() {
        for v in 0..3 {
            let mut rng =
                SmallRng::seed_from_u64(seed ^ (0xE87 << 32) ^ ((ti as u64) << 8) ^ v as u64);
            let template = 100 + ti as u32;
            let name = format!("extjob_{:02}{}", ti + 1, (b'a' + v as u8) as char);
            queries.push(instantiate(catalog, spec, id, name, template, &mut rng));
            id += 1;
        }
    }
    assert_eq!(queries.len(), 24);
    Workload { queries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use balsa_storage::{mini_imdb, DataGenConfig};

    fn imdb() -> balsa_storage::Database {
        mini_imdb(DataGenConfig {
            scale: 0.05,
            ..Default::default()
        })
    }

    #[test]
    fn job_has_113_valid_queries() {
        let db = imdb();
        let w = job_workload(db.catalog(), 7);
        assert_eq!(w.queries.len(), 113);
        for q in &w.queries {
            q.validate(db.catalog()).expect("valid");
            assert!(q.num_tables() >= 4, "{} too small", q.name);
            assert!(q.num_tables() <= 16, "{} too big", q.name);
        }
        // Average join count should be in the paper's ballpark (~8).
        let avg: f64 =
            w.queries.iter().map(|q| q.num_joins() as f64).sum::<f64>() / w.queries.len() as f64;
        assert!((5.0..11.0).contains(&avg), "avg joins {avg}");
    }

    #[test]
    fn job_variants_differ_in_constants_not_structure() {
        let db = imdb();
        let w = job_workload(db.catalog(), 7);
        let groups = w.by_template();
        assert_eq!(groups.len(), 33);
        for (_, idxs) in groups {
            let first = &w.queries[idxs[0]];
            for &i in &idxs[1..] {
                let q = &w.queries[i];
                assert_eq!(q.tables, first.tables);
                assert_eq!(q.joins, first.joins);
            }
            // At least one pair of variants must differ in filters.
            if idxs.len() > 1 {
                let any_diff = idxs[1..]
                    .iter()
                    .any(|&i| w.queries[i].filters != first.filters);
                assert!(any_diff, "variants of {} identical", first.name);
            }
        }
    }

    #[test]
    fn job_deterministic_per_seed() {
        let db = imdb();
        let a = job_workload(db.catalog(), 7);
        let b = job_workload(db.catalog(), 7);
        assert_eq!(a.queries, b.queries);
        let c = job_workload(db.catalog(), 8);
        assert_ne!(a.queries, c.queries);
    }

    #[test]
    fn ext_job_templates_disjoint_from_job() {
        let db = imdb();
        let job = job_workload(db.catalog(), 7);
        let ext = ext_job_workload(db.catalog(), 7);
        assert_eq!(ext.queries.len(), 24);
        for q in &ext.queries {
            q.validate(db.catalog()).expect("valid");
        }
        // Join structures (sets of joined table names) must not repeat JOB's.
        let sig = |q: &Query| {
            let mut t: Vec<&str> = q
                .tables
                .iter()
                .map(|qt| db.catalog().table(qt.table).name.as_str())
                .collect();
            t.sort_unstable();
            t.join(",")
        };
        let job_sigs: std::collections::HashSet<String> = job.queries.iter().map(sig).collect();
        for q in &ext.queries {
            assert!(
                !job_sigs.contains(&sig(q)),
                "Ext-JOB query {} shares a JOB join template",
                q.name
            );
        }
    }

    #[test]
    fn random_split_is_partition() {
        let s = Split::random(113, 19, 3);
        assert_eq!(s.train.len(), 94);
        assert_eq!(s.test.len(), 19);
        let mut all: Vec<usize> = s.train.iter().chain(s.test.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..113).collect::<Vec<_>>());
        // Deterministic.
        assert_eq!(s, Split::random(113, 19, 3));
        assert_ne!(s, Split::random(113, 19, 4));
    }

    #[test]
    fn slowest_templates_split() {
        let db = imdb();
        let w = job_workload(db.catalog(), 7);
        // Synthetic runtimes: template 0 queries are slowest.
        let mut runtimes: Vec<f64> = w
            .queries
            .iter()
            .map(|q| if q.template == 0 { 100.0 } else { 1.0 })
            .collect();
        let s = Split::slowest_templates(&w, &runtimes, 1);
        assert!(!s.test.is_empty());
        for &i in &s.test {
            assert_eq!(w.queries[i].template, 0);
        }
        assert_eq!(s.train.len() + s.test.len(), 113);

        // A NaN runtime (a failed measurement) must not panic the sort;
        // the split still partitions the workload, deterministically.
        runtimes[50] = f64::NAN;
        let s = Split::slowest_templates(&w, &runtimes, 1);
        let mut all: Vec<usize> = s.train.iter().chain(&s.test).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..113).collect::<Vec<_>>());
        assert_eq!(s, Split::slowest_templates(&w, &runtimes, 1));
    }
}
