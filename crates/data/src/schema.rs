//! Virtual schema and distributed record queries.
//!
//! The authors' earlier work (cited in §III-A) integrates datasets "by
//! creating a virtualized SQL data based on the schema request from
//! user's query". This module is that virtual layer: a canonical
//! [`Schema`] over the integrated record form, typed [`Predicate`]s, and
//! a [`RecordQuery`] that each site evaluates against its *local*
//! records — the per-site half of the decompose/compose pipeline
//! (Figs. 5/6).

use crate::emr::{PatientRecord, Sex};
use std::fmt;

/// A queryable scalar field of the canonical record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Field {
    /// Age in years.
    Age,
    /// Systolic blood pressure.
    SystolicBp,
    /// Total cholesterol.
    Cholesterol,
    /// Body-mass index.
    Bmi,
    /// Smoker flag.
    Smoker,
    /// Diabetic flag.
    Diabetic,
    /// Biological sex (0 = female, 1 = male).
    Sex,
    /// Mean daily steps (wearable; missing → excluded by range preds).
    DailySteps,
    /// Polygenic risk score (genomics; missing → excluded).
    PolygenicRisk,
}

impl Field {
    /// Column name in the virtual schema.
    pub fn name(self) -> &'static str {
        match self {
            Field::Age => "age",
            Field::SystolicBp => "systolic_bp",
            Field::Cholesterol => "cholesterol",
            Field::Bmi => "bmi",
            Field::Smoker => "smoker",
            Field::Diabetic => "diabetic",
            Field::Sex => "sex",
            Field::DailySteps => "daily_steps",
            Field::PolygenicRisk => "polygenic_risk",
        }
    }

    /// Extracts the field value (`None` when the modality is absent).
    pub fn extract(self, r: &PatientRecord) -> Option<f64> {
        match self {
            Field::Age => Some(r.age),
            Field::SystolicBp => Some(r.systolic_bp),
            Field::Cholesterol => Some(r.cholesterol),
            Field::Bmi => Some(r.bmi),
            Field::Smoker => Some(f64::from(r.smoker)),
            Field::Diabetic => Some(f64::from(r.diabetic)),
            Field::Sex => Some(match r.sex {
                Sex::Female => 0.0,
                Sex::Male => 1.0,
            }),
            Field::DailySteps => r.wearable.as_ref().map(|w| w.avg_daily_steps),
            Field::PolygenicRisk => r.genomics.as_ref().map(|g| g.polygenic_risk),
        }
    }

    /// All queryable fields, in schema order.
    pub fn all() -> [Field; 9] {
        [
            Field::Age,
            Field::SystolicBp,
            Field::Cholesterol,
            Field::Bmi,
            Field::Smoker,
            Field::Diabetic,
            Field::Sex,
            Field::DailySteps,
            Field::PolygenicRisk,
        ]
    }
}

/// The canonical virtual schema exposed to researchers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<Field>,
}

impl Default for Schema {
    fn default() -> Self {
        Self::canonical()
    }
}

impl Schema {
    /// The full canonical schema.
    pub fn canonical() -> Schema {
        Schema { columns: Field::all().to_vec() }
    }

    /// A projected schema with the given columns.
    pub fn project(columns: Vec<Field>) -> Schema {
        Schema { columns }
    }

    /// Columns in order.
    pub fn columns(&self) -> &[Field] {
        &self.columns
    }

    /// Extracts one row (missing modalities as `None`).
    pub fn row(&self, record: &PatientRecord) -> Vec<Option<f64>> {
        self.columns.iter().map(|f| f.extract(record)).collect()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = self.columns.iter().map(|c| c.name()).collect();
        write!(f, "({})", names.join(", "))
    }
}

/// A filter predicate over records.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `min ≤ field ≤ max`; records missing the modality are excluded.
    Range {
        /// Filtered field.
        field: Field,
        /// Inclusive lower bound.
        min: f64,
        /// Inclusive upper bound.
        max: f64,
    },
    /// Boolean field must equal `value`.
    Flag {
        /// Filtered field (interpreted as 0/1).
        field: Field,
        /// Required value.
        value: bool,
    },
    /// Record must carry the diagnosis code.
    HasDiagnosis(String),
    /// Record must NOT carry the diagnosis code.
    LacksDiagnosis(String),
    /// Record must include wearable data.
    HasWearable,
    /// Record must include genomic data.
    HasGenomics,
}

impl Predicate {
    /// Evaluates the predicate.
    pub fn matches(&self, r: &PatientRecord) -> bool {
        match self {
            Predicate::Range { field, min, max } => {
                field.extract(r).is_some_and(|v| v >= *min && v <= *max)
            }
            Predicate::Flag { field, value } => {
                field.extract(r).is_some_and(|v| (v != 0.0) == *value)
            }
            Predicate::HasDiagnosis(code) => r.has_diagnosis(code),
            Predicate::LacksDiagnosis(code) => !r.has_diagnosis(code),
            Predicate::HasWearable => r.wearable.is_some(),
            Predicate::HasGenomics => r.genomics.is_some(),
        }
    }
}

/// A conjunctive query with projection: the unit each site executes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecordQuery {
    /// Conjunctive filters.
    pub predicates: Vec<Predicate>,
    /// Projected columns (empty = all canonical columns).
    pub projection: Vec<Field>,
    /// Optional row cap.
    pub limit: Option<usize>,
}

impl RecordQuery {
    /// Query matching everything.
    pub fn all() -> RecordQuery {
        RecordQuery::default()
    }

    /// Adds a predicate (builder style).
    #[must_use]
    pub fn filter(mut self, predicate: Predicate) -> RecordQuery {
        self.predicates.push(predicate);
        self
    }

    /// Sets a row cap (builder style).
    #[must_use]
    pub fn limit(mut self, n: usize) -> RecordQuery {
        self.limit = Some(n);
        self
    }

    /// Whether a record satisfies every predicate.
    pub fn matches(&self, record: &PatientRecord) -> bool {
        self.predicates.iter().all(|p| p.matches(record))
    }

    /// The effective output schema.
    pub fn schema(&self) -> Schema {
        if self.projection.is_empty() {
            Schema::canonical()
        } else {
            Schema::project(self.projection.clone())
        }
    }

    /// Executes against local records, returning projected rows.
    pub fn run(&self, records: &[PatientRecord]) -> QueryResult {
        let schema = self.schema();
        let mut rows = Vec::new();
        let mut scanned = 0usize;
        for record in records {
            scanned += 1;
            if self.matches(record) {
                rows.push(schema.row(record));
                if self.limit.is_some_and(|cap| rows.len() >= cap) {
                    break;
                }
            }
        }
        QueryResult { schema, rows, scanned }
    }
}

/// Result of a local query execution.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Output schema.
    pub schema: Schema,
    /// Projected rows.
    pub rows: Vec<Vec<Option<f64>>>,
    /// Records scanned (cost accounting).
    pub scanned: usize,
}

impl QueryResult {
    /// Merges per-site results with identical schemas (the compose step
    /// of Fig. 5).
    ///
    /// # Panics
    ///
    /// Panics if the schemas differ.
    pub fn merge(parts: Vec<QueryResult>) -> QueryResult {
        let mut iter = parts.into_iter();
        let mut merged = iter.next().unwrap_or(QueryResult {
            schema: Schema::canonical(),
            rows: Vec::new(),
            scanned: 0,
        });
        for part in iter {
            assert_eq!(part.schema, merged.schema, "schema mismatch in merge");
            merged.rows.extend(part.rows);
            merged.scanned = merged.scanned.saturating_add(part.scanned);
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{CohortGenerator, DiseaseModel, SiteProfile, STROKE_CODE};

    fn records(n: usize) -> Vec<PatientRecord> {
        CohortGenerator::new("s", SiteProfile::default(), 41).cohort(
            0,
            n,
            &DiseaseModel::stroke(),
        )
    }

    #[test]
    fn range_predicate_filters() {
        let rs = records(400);
        let q = RecordQuery::all().filter(Predicate::Range {
            field: Field::Age,
            min: 65.0,
            max: 200.0,
        });
        let result = q.run(&rs);
        assert!(result.rows.len() < rs.len());
        assert!(!result.rows.is_empty());
        for row in &result.rows {
            assert!(row[0].unwrap() >= 65.0);
        }
    }

    #[test]
    fn conjunction_narrows() {
        let rs = records(600);
        let wide = RecordQuery::all()
            .filter(Predicate::Flag { field: Field::Smoker, value: true })
            .run(&rs)
            .rows
            .len();
        let narrow = RecordQuery::all()
            .filter(Predicate::Flag { field: Field::Smoker, value: true })
            .filter(Predicate::HasDiagnosis(STROKE_CODE.into()))
            .run(&rs)
            .rows
            .len();
        assert!(narrow <= wide);
    }

    #[test]
    fn projection_selects_columns() {
        let rs = records(50);
        let q = RecordQuery { projection: vec![Field::Age, Field::Smoker], ..RecordQuery::all() };
        let result = q.run(&rs);
        assert_eq!(result.schema.columns().len(), 2);
        assert_eq!(result.rows[0].len(), 2);
    }

    #[test]
    fn missing_modalities_yield_none_and_fail_ranges() {
        let rs = records(400);
        let projected =
            RecordQuery { projection: vec![Field::DailySteps], ..RecordQuery::all() }.run(&rs);
        let some_missing = projected.rows.iter().any(|row| row[0].is_none());
        assert!(some_missing, "expected patients without wearables");
        // A range predicate over the wearable field only matches those who have one.
        let filtered = RecordQuery::all()
            .filter(Predicate::Range { field: Field::DailySteps, min: 0.0, max: 1e9 })
            .run(&rs);
        let with_wearable = RecordQuery::all().filter(Predicate::HasWearable).run(&rs);
        assert_eq!(filtered.rows.len(), with_wearable.rows.len());
    }

    #[test]
    fn limit_caps_rows() {
        let rs = records(200);
        assert_eq!(RecordQuery::all().limit(7).run(&rs).rows.len(), 7);
    }

    #[test]
    fn merge_concatenates_site_results() {
        let all = records(300);
        let q = RecordQuery::all().filter(Predicate::Flag { field: Field::Diabetic, value: true });
        let whole = q.run(&all);
        let parts: Vec<QueryResult> =
            all.chunks(100).map(|chunk| q.run(chunk)).collect();
        let merged = QueryResult::merge(parts);
        assert_eq!(merged.rows.len(), whole.rows.len());
        assert_eq!(merged.scanned, 300);
    }

    #[test]
    fn schema_display_lists_columns() {
        let text = Schema::canonical().to_string();
        assert!(text.contains("age"));
        assert!(text.contains("polygenic_risk"));
    }

    #[test]
    fn lacks_diagnosis_is_complement() {
        let rs = records(300);
        let with_dx =
            RecordQuery::all().filter(Predicate::HasDiagnosis(STROKE_CODE.into())).run(&rs);
        let without_dx =
            RecordQuery::all().filter(Predicate::LacksDiagnosis(STROKE_CODE.into())).run(&rs);
        assert_eq!(with_dx.rows.len() + without_dx.rows.len(), rs.len());
    }
}

mod codec_impls {
    use super::{Field, Predicate, QueryResult, RecordQuery, Schema};
    use medchain_runtime::{impl_codec_enum, impl_codec_struct, impl_codec_unit_enum};

    impl_codec_unit_enum!(Field {
        Age,
        SystolicBp,
        Cholesterol,
        Bmi,
        Smoker,
        Diabetic,
        Sex,
        DailySteps,
        PolygenicRisk,
    });
    impl_codec_enum!(Predicate {
        0 => Range { field, min, max },
        1 => Flag { field, value },
        2 => HasDiagnosis(code),
        3 => LacksDiagnosis(code),
        4 => HasWearable,
        5 => HasGenomics,
    });
    impl_codec_struct!(RecordQuery { predicates, projection, limit });
    impl_codec_struct!(Schema { columns });
    impl_codec_struct!(QueryResult { schema, rows, scanned });
}
