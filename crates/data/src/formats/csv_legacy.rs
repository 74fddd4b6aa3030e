//! Legacy flat-CSV export format (most lossy).
//!
//! Models the one-row-per-patient research extracts many hospital IT
//! departments still produce: scalars plus semicolon-joined diagnosis
//! codes. Everything structured (meds, labs, visits, wearable, genomics)
//! is lost — exactly the kind of silo the paper's integration layer has
//! to cope with.

use super::{FormatError, LegacyFormat};
use crate::emr::{Diagnosis, PatientRecord, Sex};

/// The legacy CSV codec.
#[derive(Debug, Default, Clone, Copy)]
pub struct LegacyCsvFormat;

const NAME: &str = "csv";

/// Column header for the legacy export.
const HEADER: &str = "patient_id,age,sex,systolic_bp,cholesterol,bmi,smoker,diabetic,diagnoses";

impl LegacyFormat for LegacyCsvFormat {
    fn name(&self) -> &'static str {
        NAME
    }

    fn encode(&self, r: &PatientRecord) -> String {
        let diagnoses = r
            .diagnoses
            .iter()
            .map(|d| format!("{}:{}", d.code, d.onset_day))
            .collect::<Vec<_>>()
            .join(";");
        format!(
            "{}\n{},{:.1},{},{:.1},{:.1},{:.2},{},{},{}",
            HEADER,
            r.patient_id,
            r.age,
            r.sex.code(),
            r.systolic_bp,
            r.cholesterol,
            r.bmi,
            u8::from(r.smoker),
            u8::from(r.diabetic),
            diagnoses
        )
    }

    fn decode(&self, text: &str) -> Result<PatientRecord, FormatError> {
        let bad = |message: String| FormatError { format: NAME, message };
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or_else(|| bad("empty document".into()))?;
        if header.trim() != HEADER {
            return Err(bad(format!("unexpected header {header:?}")));
        }
        let row = lines.next().ok_or_else(|| bad("missing data row".into()))?;
        let cols: Vec<&str> = row.split(',').collect();
        if cols.len() != 9 {
            return Err(bad(format!("expected 9 columns, got {}", cols.len())));
        }
        let parse_f = |i: usize, what: &str| {
            cols[i].parse::<f64>().map_err(|_| bad(format!("bad {what}: {:?}", cols[i])))
        };
        let id =
            cols[0].parse::<u64>().map_err(|_| bad(format!("bad patient id {:?}", cols[0])))?;
        let sex = cols[2]
            .chars()
            .next()
            .and_then(Sex::from_code)
            .ok_or_else(|| bad(format!("bad sex {:?}", cols[2])))?;
        let mut record = PatientRecord::basic(id, parse_f(1, "age")?, sex);
        record.systolic_bp = parse_f(3, "systolic bp")?;
        record.cholesterol = parse_f(4, "cholesterol")?;
        record.bmi = parse_f(5, "bmi")?;
        record.smoker = cols[6] == "1";
        record.diabetic = cols[7] == "1";
        if !cols[8].is_empty() {
            for dx in cols[8].split(';') {
                let (code, onset) = dx
                    .split_once(':')
                    .ok_or_else(|| bad(format!("bad diagnosis entry {dx:?}")))?;
                record.diagnoses.push(Diagnosis {
                    code: code.to_string(),
                    onset_day: onset
                        .parse::<u32>()
                        .map_err(|_| bad(format!("bad onset day {onset:?}")))?,
                });
            }
        }
        Ok(record)
    }

    fn lossy_fields(&self) -> &'static [&'static str] {
        &["medications", "labs", "visits", "wearable", "genomics"]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{CohortGenerator, DiseaseModel, SiteProfile};

    #[test]
    fn round_trip_scalar_fields() {
        let records = CohortGenerator::new("s", SiteProfile::default(), 17).cohort(
            0,
            30,
            &DiseaseModel::stroke(),
        );
        let codec = LegacyCsvFormat;
        for r in &records {
            let decoded = codec.decode(&codec.encode(r)).unwrap();
            assert_eq!(decoded.patient_id, r.patient_id);
            assert_eq!(decoded.sex, r.sex);
            assert_eq!(decoded.smoker, r.smoker);
            assert_eq!(decoded.diabetic, r.diabetic);
            assert_eq!(decoded.diagnoses, r.diagnoses);
            assert!((decoded.age - r.age).abs() < 0.06);
            assert!(decoded.medications.is_empty() || r.medications.is_empty());
        }
    }

    #[test]
    fn wrong_header_rejected() {
        assert!(LegacyCsvFormat.decode("id,age\n1,50").is_err());
    }

    #[test]
    fn wrong_column_count_rejected() {
        let text = format!("{HEADER}\n1,50.0,F");
        assert!(LegacyCsvFormat.decode(&text).is_err());
    }

    #[test]
    fn bad_diagnosis_entry_rejected() {
        let text = format!("{HEADER}\n1,50.0,F,120.0,190.0,24.00,0,0,I63noseparator");
        assert!(LegacyCsvFormat.decode(&text).is_err());
    }

    #[test]
    fn empty_diagnoses_column_ok() {
        let text = format!("{HEADER}\n1,50.0,F,120.0,190.0,24.00,0,0,");
        let r = LegacyCsvFormat.decode(&text).unwrap();
        assert!(r.diagnoses.is_empty());
    }
}
