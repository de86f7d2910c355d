//! Deterministic synthetic database generators.
//!
//! The paper evaluates on the real IMDb dataset (Join Order Benchmark),
//! which is not available offline, so **mini-IMDb** generates a synthetic
//! equivalent that preserves the properties the learning dynamics depend
//! on: the same 21-table snowflake schema as IMDb/JOB, with zipfian
//! foreign-key fan-out (a few movies have enormous casts), skewed
//! dimension values, and *cross-column correlations* (e.g.
//! `movie_info.info` is strongly determined by `info_type_id`,
//! `title.kind_id` correlates with `production_year`). The correlations
//! are what make the independence-assuming histogram estimator err by
//! orders of magnitude — the property §1/§10 of the paper rely on.
//!
//! All generation is deterministic given [`DataGenConfig::seed`].

use crate::catalog::{Catalog, ColumnMeta, Database, FkEdge, TableMeta};
use crate::column::{Column, NULL_SENTINEL};
use crate::stats::TableStats;
use crate::table::Table;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// Configuration for the synthetic generators.
#[derive(Debug, Clone, Copy)]
pub struct DataGenConfig {
    /// Multiplies every table's base row count. 1.0 is the default
    /// "quick" scale (a few thousand rows in the fact tables).
    pub scale: f64,
    /// Master RNG seed; all randomness derives from it.
    pub seed: u64,
}

impl Default for DataGenConfig {
    fn default() -> Self {
        Self {
            scale: 1.0,
            seed: 0xBA15A,
        }
    }
}

impl DataGenConfig {
    /// Scales a base row count, keeping at least 2 rows.
    fn rows(&self, base: usize) -> usize {
        ((base as f64 * self.scale) as usize).max(2)
    }
}

/// A zipfian sampler over `0..n` with exponent `s`, built on an explicit
/// CDF (deterministic, no rejection sampling).
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds the sampler. `n` must be > 0.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Self { cdf }
    }

    /// Samples a rank in `0..n` (0 is the most frequent).
    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        let u: f64 = rng.random();
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

/// Helper that accumulates columns for one table.
struct TableBuilder {
    name: &'static str,
    cols: Vec<(String, Column, bool)>, // (name, data, indexed)
    primary_key: Option<usize>,
}

impl TableBuilder {
    fn new(name: &'static str) -> Self {
        Self {
            name,
            cols: Vec::new(),
            primary_key: None,
        }
    }

    fn pk(mut self, name: &str, n: usize) -> Self {
        self.primary_key = Some(self.cols.len());
        self.cols
            .push((name.to_string(), Column::new((0..n as i64).collect()), true));
        self
    }

    fn col(mut self, name: &str, data: Vec<i64>, indexed: bool) -> Self {
        self.cols
            .push((name.to_string(), Column::new(data), indexed));
        self
    }

    fn finish(self, catalog: &mut Catalog, tables: &mut Vec<Table>) -> usize {
        let meta = TableMeta {
            name: self.name.to_string(),
            columns: self
                .cols
                .iter()
                .map(|(n, _, idx)| ColumnMeta {
                    name: n.clone(),
                    indexed: *idx,
                })
                .collect(),
            primary_key: self.primary_key,
        };
        let id = catalog.add_table(meta);
        tables.push(Table::new(
            self.name,
            self.cols.into_iter().map(|(n, c, _)| (n, c)).collect(),
        ));
        id
    }
}

fn finish_db(catalog: Catalog, tables: Vec<Table>) -> Database {
    let stats = tables.iter().map(TableStats::build).collect();
    Database::new(catalog, tables, stats)
}

/// Samples `n` zipfian foreign keys referencing `0..parent_n`, with ranks
/// shuffled so popularity is not aligned with key order.
fn zipf_fk(rng: &mut SmallRng, n: usize, parent_n: usize, s: f64) -> Vec<i64> {
    let zipf = ZipfSampler::new(parent_n, s);
    // A fixed random permutation decouples "rank" from "id".
    let mut perm: Vec<i64> = (0..parent_n as i64).collect();
    for i in (1..perm.len()).rev() {
        let j = rng.random_range(0..=i);
        perm.swap(i, j);
    }
    (0..n).map(|_| perm[zipf.sample(rng)]).collect()
}

/// Uniform foreign keys referencing `0..parent_n`.
fn uniform_fk(rng: &mut SmallRng, n: usize, parent_n: usize) -> Vec<i64> {
    (0..n)
        .map(|_| rng.random_range(0..parent_n as i64))
        .collect()
}

/// Generates the mini-IMDb database (21-table JOB schema).
pub fn mini_imdb(cfg: DataGenConfig) -> Database {
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x1_34D8);
    let mut catalog = Catalog::new();
    let mut tables = Vec::new();

    // ---- dimension sizes ----
    let n_kind_type = 7;
    let n_comp_cast_type = 4;
    let n_company_type = 4;
    let n_role_type = 12;
    let n_link_type = 18;
    let n_info_type = 113;
    let n_title = cfg.rows(4000);
    let n_name = cfg.rows(3000);
    let n_char_name = cfg.rows(2500);
    let n_company_name = cfg.rows(1200);
    let n_keyword = cfg.rows(1500);
    let n_cast_info = cfg.rows(14000);
    let n_movie_info = cfg.rows(8000);
    let n_movie_info_idx = cfg.rows(3500);
    let n_movie_keyword = cfg.rows(6000);
    let n_movie_companies = cfg.rows(5000);
    let n_movie_link = cfg.rows(600);
    let n_complete_cast = cfg.rows(800);
    let n_aka_name = cfg.rows(1200);
    let n_aka_title = cfg.rows(900);
    let n_person_info = cfg.rows(4000);

    // ---- tiny dimensions ----
    let kind_type = TableBuilder::new("kind_type")
        .pk("id", n_kind_type)
        .col("kind", (0..n_kind_type as i64).collect(), false)
        .finish(&mut catalog, &mut tables);
    let comp_cast_type = TableBuilder::new("comp_cast_type")
        .pk("id", n_comp_cast_type)
        .col("kind", (0..n_comp_cast_type as i64).collect(), false)
        .finish(&mut catalog, &mut tables);
    let company_type = TableBuilder::new("company_type")
        .pk("id", n_company_type)
        .col("kind", (0..n_company_type as i64).collect(), false)
        .finish(&mut catalog, &mut tables);
    let role_type = TableBuilder::new("role_type")
        .pk("id", n_role_type)
        .col("role", (0..n_role_type as i64).collect(), false)
        .finish(&mut catalog, &mut tables);
    let link_type = TableBuilder::new("link_type")
        .pk("id", n_link_type)
        .col("link", (0..n_link_type as i64).collect(), false)
        .finish(&mut catalog, &mut tables);
    let info_type = TableBuilder::new("info_type")
        .pk("id", n_info_type)
        .col("info", (0..n_info_type as i64).collect(), false)
        .finish(&mut catalog, &mut tables);

    // ---- title: production_year skews recent; kind correlates with year ----
    let year_zipf = ZipfSampler::new(120, 1.15);
    let mut t_year = Vec::with_capacity(n_title);
    let mut t_kind = Vec::with_capacity(n_title);
    let mut t_season = Vec::with_capacity(n_title);
    for _ in 0..n_title {
        let year = 2020 - year_zipf.sample(&mut rng) as i64;
        // TV episodes (kind 6/7) are much more likely for recent titles.
        let kind = if year >= 2000 && rng.random::<f64>() < 0.45 {
            6 + rng.random_range(0..2i64) % (n_kind_type as i64 - 6).max(1)
        } else {
            // Movies dominate the backlist.
            let z = ZipfSampler::new(6, 1.3);
            z.sample(&mut rng) as i64
        };
        let season = if kind >= 6 {
            rng.random_range(1..=20i64)
        } else {
            NULL_SENTINEL
        };
        t_year.push(year);
        t_kind.push(kind.min(n_kind_type as i64 - 1));
        t_season.push(season);
    }
    let title = TableBuilder::new("title")
        .pk("id", n_title)
        .col("kind_id", t_kind, true)
        .col("production_year", t_year, false)
        .col("season_nr", t_season, false)
        .finish(&mut catalog, &mut tables);
    catalog.add_fk(FkEdge {
        child: title,
        child_col: 1,
        parent: kind_type,
        parent_col: 0,
    });

    // ---- name (people) ----
    let n_gender: Vec<i64> = (0..n_name)
        .map(|_| if rng.random::<f64>() < 0.7 { 0 } else { 1 })
        .collect();
    let name = TableBuilder::new("name")
        .pk("id", n_name)
        .col("gender", n_gender, false)
        .col(
            "name_pcode_cf",
            (0..n_name).map(|_| rng.random_range(0..500i64)).collect(),
            false,
        )
        .finish(&mut catalog, &mut tables);

    let char_name = TableBuilder::new("char_name")
        .pk("id", n_char_name)
        .col(
            "name_pcode_nf",
            (0..n_char_name)
                .map(|_| rng.random_range(0..400i64))
                .collect(),
            false,
        )
        .finish(&mut catalog, &mut tables);

    // ---- company_name: country skews heavily toward a few codes ----
    let country_zipf = ZipfSampler::new(60, 1.4);
    let company_name = TableBuilder::new("company_name")
        .pk("id", n_company_name)
        .col(
            "country_code",
            (0..n_company_name)
                .map(|_| country_zipf.sample(&mut rng) as i64)
                .collect(),
            false,
        )
        .finish(&mut catalog, &mut tables);

    let keyword = TableBuilder::new("keyword")
        .pk("id", n_keyword)
        .col("keyword", (0..n_keyword as i64).collect(), false)
        .finish(&mut catalog, &mut tables);

    // ---- cast_info: zipfian movie fan-out; role correlates with gender ----
    let ci_movie = zipf_fk(&mut rng, n_cast_info, n_title, 0.9);
    let ci_person = zipf_fk(&mut rng, n_cast_info, n_name, 1.0);
    let role_zipf = ZipfSampler::new(n_role_type, 1.2);
    let ci_role: Vec<i64> = (0..n_cast_info)
        .map(|_| role_zipf.sample(&mut rng) as i64)
        .collect();
    let ci_char: Vec<i64> = (0..n_cast_info)
        .map(|_| {
            if rng.random::<f64>() < 0.35 {
                NULL_SENTINEL
            } else {
                rng.random_range(0..n_char_name as i64)
            }
        })
        .collect();
    let cast_info = TableBuilder::new("cast_info")
        .pk("id", n_cast_info)
        .col("person_id", ci_person, true)
        .col("movie_id", ci_movie, true)
        .col("person_role_id", ci_char, true)
        .col("role_id", ci_role, true)
        .col(
            "note",
            (0..n_cast_info)
                .map(|_| rng.random_range(0..50i64))
                .collect(),
            false,
        )
        .finish(&mut catalog, &mut tables);
    catalog.add_fk(FkEdge {
        child: cast_info,
        child_col: 1,
        parent: name,
        parent_col: 0,
    });
    catalog.add_fk(FkEdge {
        child: cast_info,
        child_col: 2,
        parent: title,
        parent_col: 0,
    });
    catalog.add_fk(FkEdge {
        child: cast_info,
        child_col: 3,
        parent: char_name,
        parent_col: 0,
    });
    catalog.add_fk(FkEdge {
        child: cast_info,
        child_col: 4,
        parent: role_type,
        parent_col: 0,
    });

    // ---- movie_info: `info` value strongly determined by info_type_id.
    // This correlation is invisible to an independence-assuming estimator.
    let mi_movie = zipf_fk(&mut rng, n_movie_info, n_title, 0.8);
    let it_zipf = ZipfSampler::new(n_info_type, 1.1);
    let mut mi_it = Vec::with_capacity(n_movie_info);
    let mut mi_info = Vec::with_capacity(n_movie_info);
    for _ in 0..n_movie_info {
        let it = it_zipf.sample(&mut rng) as i64;
        // info values live in a band determined by the info type.
        let v = it * 100 + rng.random_range(0..20i64);
        mi_it.push(it);
        mi_info.push(v);
    }
    let movie_info = TableBuilder::new("movie_info")
        .pk("id", n_movie_info)
        .col("movie_id", mi_movie, true)
        .col("info_type_id", mi_it, true)
        .col("info", mi_info, false)
        .finish(&mut catalog, &mut tables);
    catalog.add_fk(FkEdge {
        child: movie_info,
        child_col: 1,
        parent: title,
        parent_col: 0,
    });
    catalog.add_fk(FkEdge {
        child: movie_info,
        child_col: 2,
        parent: info_type,
        parent_col: 0,
    });

    // ---- movie_info_idx: ratings/votes style info ----
    let mii_movie = zipf_fk(&mut rng, n_movie_info_idx, n_title, 0.7);
    let mut mii_it = Vec::with_capacity(n_movie_info_idx);
    let mut mii_info = Vec::with_capacity(n_movie_info_idx);
    for i in 0..n_movie_info_idx {
        // info types 99..103 only (mirrors IMDb's rating/votes types).
        let it = 99 + (i as i64 % 4);
        // "rating" in tenths, correlated with movie popularity (movie id rank).
        let v = rng.random_range(10..100i64);
        mii_it.push(it);
        mii_info.push(v);
    }
    let movie_info_idx = TableBuilder::new("movie_info_idx")
        .pk("id", n_movie_info_idx)
        .col("movie_id", mii_movie, true)
        .col("info_type_id", mii_it, true)
        .col("info", mii_info, false)
        .finish(&mut catalog, &mut tables);
    catalog.add_fk(FkEdge {
        child: movie_info_idx,
        child_col: 1,
        parent: title,
        parent_col: 0,
    });
    catalog.add_fk(FkEdge {
        child: movie_info_idx,
        child_col: 2,
        parent: info_type,
        parent_col: 0,
    });

    // ---- movie_keyword ----
    let mk_movie = zipf_fk(&mut rng, n_movie_keyword, n_title, 0.85);
    let mk_kw = zipf_fk(&mut rng, n_movie_keyword, n_keyword, 1.05);
    let movie_keyword = TableBuilder::new("movie_keyword")
        .pk("id", n_movie_keyword)
        .col("movie_id", mk_movie, true)
        .col("keyword_id", mk_kw, true)
        .finish(&mut catalog, &mut tables);
    catalog.add_fk(FkEdge {
        child: movie_keyword,
        child_col: 1,
        parent: title,
        parent_col: 0,
    });
    catalog.add_fk(FkEdge {
        child: movie_keyword,
        child_col: 2,
        parent: keyword,
        parent_col: 0,
    });

    // ---- movie_companies: company type correlates with country ----
    let mc_movie = zipf_fk(&mut rng, n_movie_companies, n_title, 0.8);
    let mc_company = zipf_fk(&mut rng, n_movie_companies, n_company_name, 1.1);
    let mc_type: Vec<i64> = (0..n_movie_companies)
        .map(|_| {
            if rng.random::<f64>() < 0.6 {
                0 // production companies dominate
            } else {
                rng.random_range(1..n_company_type as i64)
            }
        })
        .collect();
    let movie_companies = TableBuilder::new("movie_companies")
        .pk("id", n_movie_companies)
        .col("movie_id", mc_movie, true)
        .col("company_id", mc_company, true)
        .col("company_type_id", mc_type, true)
        .col(
            "note",
            (0..n_movie_companies)
                .map(|_| rng.random_range(0..30i64))
                .collect(),
            false,
        )
        .finish(&mut catalog, &mut tables);
    catalog.add_fk(FkEdge {
        child: movie_companies,
        child_col: 1,
        parent: title,
        parent_col: 0,
    });
    catalog.add_fk(FkEdge {
        child: movie_companies,
        child_col: 2,
        parent: company_name,
        parent_col: 0,
    });
    catalog.add_fk(FkEdge {
        child: movie_companies,
        child_col: 3,
        parent: company_type,
        parent_col: 0,
    });

    // ---- movie_link (title self-join via linked_movie_id) ----
    let ml_movie = uniform_fk(&mut rng, n_movie_link, n_title);
    let ml_linked = uniform_fk(&mut rng, n_movie_link, n_title);
    let ml_lt: Vec<i64> = (0..n_movie_link)
        .map(|_| rng.random_range(0..n_link_type as i64))
        .collect();
    let movie_link = TableBuilder::new("movie_link")
        .pk("id", n_movie_link)
        .col("movie_id", ml_movie, true)
        .col("linked_movie_id", ml_linked, true)
        .col("link_type_id", ml_lt, true)
        .finish(&mut catalog, &mut tables);
    catalog.add_fk(FkEdge {
        child: movie_link,
        child_col: 1,
        parent: title,
        parent_col: 0,
    });
    catalog.add_fk(FkEdge {
        child: movie_link,
        child_col: 2,
        parent: title,
        parent_col: 0,
    });
    catalog.add_fk(FkEdge {
        child: movie_link,
        child_col: 3,
        parent: link_type,
        parent_col: 0,
    });

    // ---- complete_cast ----
    let cc_movie = uniform_fk(&mut rng, n_complete_cast, n_title);
    let cc_subject: Vec<i64> = (0..n_complete_cast)
        .map(|_| rng.random_range(0..n_comp_cast_type as i64))
        .collect();
    let cc_status: Vec<i64> = (0..n_complete_cast)
        .map(|_| rng.random_range(0..n_comp_cast_type as i64))
        .collect();
    let complete_cast = TableBuilder::new("complete_cast")
        .pk("id", n_complete_cast)
        .col("movie_id", cc_movie, true)
        .col("subject_id", cc_subject, true)
        .col("status_id", cc_status, true)
        .finish(&mut catalog, &mut tables);
    catalog.add_fk(FkEdge {
        child: complete_cast,
        child_col: 1,
        parent: title,
        parent_col: 0,
    });
    catalog.add_fk(FkEdge {
        child: complete_cast,
        child_col: 2,
        parent: comp_cast_type,
        parent_col: 0,
    });
    catalog.add_fk(FkEdge {
        child: complete_cast,
        child_col: 3,
        parent: comp_cast_type,
        parent_col: 0,
    });

    // ---- aka_name / aka_title / person_info ----
    let an_person = zipf_fk(&mut rng, n_aka_name, n_name, 1.1);
    let aka_name = TableBuilder::new("aka_name")
        .pk("id", n_aka_name)
        .col("person_id", an_person, true)
        .finish(&mut catalog, &mut tables);
    catalog.add_fk(FkEdge {
        child: aka_name,
        child_col: 1,
        parent: name,
        parent_col: 0,
    });

    let at_movie = zipf_fk(&mut rng, n_aka_title, n_title, 1.0);
    let aka_title = TableBuilder::new("aka_title")
        .pk("id", n_aka_title)
        .col("movie_id", at_movie, true)
        .finish(&mut catalog, &mut tables);
    catalog.add_fk(FkEdge {
        child: aka_title,
        child_col: 1,
        parent: title,
        parent_col: 0,
    });

    let pi_person = zipf_fk(&mut rng, n_person_info, n_name, 1.0);
    let pi_it: Vec<i64> = (0..n_person_info)
        .map(|_| 15 + (it_zipf.sample(&mut rng) as i64 % 30))
        .collect();
    let person_info = TableBuilder::new("person_info")
        .pk("id", n_person_info)
        .col("person_id", pi_person, true)
        .col("info_type_id", pi_it, true)
        .finish(&mut catalog, &mut tables);
    catalog.add_fk(FkEdge {
        child: person_info,
        child_col: 1,
        parent: name,
        parent_col: 0,
    });
    catalog.add_fk(FkEdge {
        child: person_info,
        child_col: 2,
        parent: info_type,
        parent_col: 0,
    });

    finish_db(catalog, tables)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_sampler_is_skewed() {
        let mut rng = SmallRng::seed_from_u64(1);
        let z = ZipfSampler::new(100, 1.2);
        let mut counts = vec![0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[50] * 5, "rank 0 should dominate");
        assert!(counts.iter().sum::<usize>() == 20_000);
    }

    #[test]
    fn mini_imdb_schema_matches_job() {
        let db = mini_imdb(DataGenConfig::default());
        assert_eq!(db.catalog().num_tables(), 21);
        for name in [
            "title",
            "cast_info",
            "movie_info",
            "movie_info_idx",
            "movie_keyword",
            "movie_companies",
            "movie_link",
            "complete_cast",
            "aka_title",
            "aka_name",
            "person_info",
            "name",
            "char_name",
            "company_name",
            "company_type",
            "keyword",
            "kind_type",
            "comp_cast_type",
            "info_type",
            "link_type",
            "role_type",
        ] {
            assert!(db.catalog().table_id(name).is_some(), "missing {name}");
        }
        // FK integrity: every FK value is NULL or a valid parent PK.
        for fk in db.catalog().fk_edges() {
            let child = db.table(fk.child);
            let parent_rows = db.table(fk.parent).num_rows() as i64;
            for &v in child.column(fk.child_col).values() {
                assert!(
                    v == NULL_SENTINEL || (0..parent_rows).contains(&v),
                    "dangling FK {v} in {}",
                    child.name()
                );
            }
        }
    }

    #[test]
    fn mini_imdb_deterministic() {
        let a = mini_imdb(DataGenConfig::default());
        let b = mini_imdb(DataGenConfig::default());
        let t1 = a.table(a.catalog().table_id("cast_info").unwrap());
        let t2 = b.table(b.catalog().table_id("cast_info").unwrap());
        assert_eq!(t1.column(1).values(), t2.column(1).values());
    }

    #[test]
    fn mini_imdb_seed_changes_data() {
        let a = mini_imdb(DataGenConfig::default());
        let b = mini_imdb(DataGenConfig {
            seed: 42,
            ..Default::default()
        });
        let t1 = a.table(a.catalog().table_id("cast_info").unwrap());
        let t2 = b.table(b.catalog().table_id("cast_info").unwrap());
        assert_ne!(t1.column(1).values(), t2.column(1).values());
    }

    #[test]
    fn fan_out_is_skewed() {
        // The busiest movie should have far more cast entries than the median.
        let db = mini_imdb(DataGenConfig::default());
        let ci = db.table(db.catalog().table_id("cast_info").unwrap());
        let nt = db.table(db.catalog().table_id("title").unwrap()).num_rows();
        let mut fanout = vec![0usize; nt];
        for &m in ci.column_by_name("movie_id").values() {
            fanout[m as usize] += 1;
        }
        fanout.sort_unstable();
        let max = *fanout.last().unwrap();
        let median = fanout[nt / 2];
        assert!(max >= (median.max(1)) * 10, "max={max} median={median}");
    }

    #[test]
    fn scale_factor_scales_rows() {
        let small = mini_imdb(DataGenConfig {
            scale: 0.1,
            ..Default::default()
        });
        let big = mini_imdb(DataGenConfig::default());
        let rows =
            |db: &Database, name: &str| db.table(db.catalog().table_id(name).unwrap()).num_rows();
        for name in ["title", "cast_info", "movie_info"] {
            assert!(rows(&small, name) * 5 < rows(&big, name), "{name}");
        }
        // Fixed-size dimension tables do not scale.
        assert_eq!(rows(&small, "kind_type"), rows(&big, "kind_type"));
    }

    #[test]
    fn stats_are_built() {
        let db = mini_imdb(DataGenConfig {
            scale: 0.2,
            ..Default::default()
        });
        let tid = db.catalog().table_id("title").unwrap();
        let st = db.stats(tid);
        assert_eq!(st.num_rows, db.table(tid).num_rows() as u64);
        let year = db
            .catalog()
            .table(tid)
            .column_id("production_year")
            .unwrap();
        assert!(st.columns[year].ndv > 10);
        assert!(!st.columns[year].histogram.bounds.is_empty());
    }
}
