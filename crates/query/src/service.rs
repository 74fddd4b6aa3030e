//! The global query service (top layer of paper Fig. 5).
//!
//! Accepts natural-language or structured queries, plans them across
//! the registered sites, and composes the returned outputs. This module
//! is transport-agnostic: the `medchain` core crate drives the actual
//! per-site execution through smart contracts and the off-chain control
//! plane; tests here drive it directly with in-memory records.

use crate::composer::{compose, ComposeError, QueryAnswer};
use crate::nlp::{parse_request, NlpError};
use crate::planner::{plan, SiteOutput, SiteTask};
use crate::vector::QueryVector;
use std::fmt;

/// Errors from the global service.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryServiceError {
    /// The natural-language request could not be mapped.
    Nlp(NlpError),
    /// Composition failed.
    Compose(ComposeError),
    /// No sites are registered.
    NoSites,
}

impl fmt::Display for QueryServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryServiceError::Nlp(e) => write!(f, "{e}"),
            QueryServiceError::Compose(e) => write!(f, "{e}"),
            QueryServiceError::NoSites => f.write_str("no sites registered"),
        }
    }
}

impl std::error::Error for QueryServiceError {}

impl From<NlpError> for QueryServiceError {
    fn from(e: NlpError) -> Self {
        QueryServiceError::Nlp(e)
    }
}

impl From<ComposeError> for QueryServiceError {
    fn from(e: ComposeError) -> Self {
        QueryServiceError::Compose(e)
    }
}

/// Execution statistics for one query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Sites the query was fanned out to.
    pub sites: usize,
    /// Total bytes returned by sites (what actually crossed the wire).
    pub bytes_returned: u64,
}

/// The global query service.
#[derive(Debug, Clone, Default)]
pub struct GlobalQueryService {
    sites: Vec<String>,
}

impl GlobalQueryService {
    /// Creates a service over the given site names.
    pub fn new(sites: Vec<String>) -> GlobalQueryService {
        GlobalQueryService { sites }
    }

    /// Registered sites.
    pub fn sites(&self) -> &[String] {
        &self.sites
    }

    /// Maps a natural-language request to a query vector.
    ///
    /// # Errors
    ///
    /// Returns [`QueryServiceError::Nlp`] for unmappable requests.
    pub fn parse(&self, request: &str) -> Result<QueryVector, QueryServiceError> {
        Ok(parse_request(request)?)
    }

    /// Plans a query vector into per-site tasks.
    ///
    /// # Errors
    ///
    /// Returns [`QueryServiceError::NoSites`] when no sites registered.
    pub fn plan(&self, query: &QueryVector) -> Result<Vec<SiteTask>, QueryServiceError> {
        if self.sites.is_empty() {
            return Err(QueryServiceError::NoSites);
        }
        Ok(plan(query, &self.sites))
    }

    /// Composes site outputs into the final answer, with traffic stats.
    ///
    /// # Errors
    ///
    /// Propagates [`ComposeError`] as [`QueryServiceError::Compose`].
    pub fn compose(
        &self,
        query: &QueryVector,
        outputs: Vec<SiteOutput>,
    ) -> Result<(QueryAnswer, QueryStats), QueryServiceError> {
        let stats = QueryStats {
            sites: outputs.len(),
            bytes_returned: outputs.iter().map(|o| o.wire_size() as u64).sum(),
        };
        Ok((compose(query, outputs)?, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::execute_local;
    use medchain_data::synth::{CohortGenerator, DiseaseModel, SiteProfile};
    use medchain_data::PatientRecord;
    use medchain_learning::decompose::AggregateValue;

    fn service() -> GlobalQueryService {
        GlobalQueryService::new((0..3).map(|i| format!("hospital-{i}")).collect())
    }

    fn site_records(i: usize) -> Vec<PatientRecord> {
        CohortGenerator::new(&format!("hospital-{i}"), SiteProfile::varied(i), 700 + i as u64)
            .cohort((i * 1_000) as u64, 250, &DiseaseModel::stroke())
    }

    #[test]
    fn end_to_end_nl_query() {
        let service = service();
        let query = service.parse("count smokers over 55 for public health").unwrap();
        let tasks = service.plan(&query).unwrap();
        assert_eq!(tasks.len(), 3);
        let outputs: Vec<SiteOutput> = tasks
            .iter()
            .enumerate()
            .map(|(i, t)| execute_local(t, &site_records(i), None))
            .collect();
        let (answer, stats) = service.compose(&query, outputs).unwrap();
        match answer {
            QueryAnswer::Aggregates(values) => match &values[0] {
                AggregateValue::Scalar(count) => assert!(*count > 0.0 && *count < 750.0),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
        assert_eq!(stats.sites, 3);
        assert!(stats.bytes_returned > 0);
    }

    #[test]
    fn no_sites_is_an_error() {
        let service = GlobalQueryService::default();
        let query = QueryVector::fetch_all();
        assert_eq!(service.plan(&query), Err(QueryServiceError::NoSites));
    }

    #[test]
    fn nlp_errors_propagate() {
        let service = service();
        assert!(matches!(
            service.parse("gibberish request"),
            Err(QueryServiceError::Nlp(_))
        ));
    }
}
