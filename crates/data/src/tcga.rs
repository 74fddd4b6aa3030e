//! TCGA, the paper's reference cancer cohort (paper §III-A).
//!
//! "TCGA collected and characterized high quality tumor and matched
//! normal samples from over 11000 patients … (a) clinical information,
//! (b) metadata about the samples, (c) histopathology slide images, and
//! (d) molecular information." The paper's point is that 11k samples is
//! *small* for deep learning despite the petabytes — hence the need to
//! integrate hospital EMR silos into a larger core dataset (E5).

/// TCGA's headline cohort size.
pub const TCGA_PATIENT_COUNT: usize = 11_000;
