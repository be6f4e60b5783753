//! Access-path specifications: the "operator specification provided to the
//! code generation plug-in" (§3).
//!
//! A spec captures everything relevant from the catalog and the query: file
//! format, schema fingerprint, which fields to read (and their types), how
//! the scan is driven, and positional-map obligations. Its fingerprint keys
//! the template cache, so re-running the same query skips "compilation".

use raw_columnar::{DataType, Schema};

/// The raw file formats RAW has plug-ins for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileFormat {
    /// Delimiter-separated text.
    Csv,
    /// Fixed-width custom binary.
    Fbin,
    /// Paged fixed-width binary with an embedded zone index.
    Ibin,
    /// ROOT-like nested event format.
    RootSim,
}

impl FileFormat {
    /// Short name used in plan explanations and cache keys.
    pub fn name(self) -> &'static str {
        match self {
            FileFormat::Csv => "csv",
            FileFormat::Fbin => "fbin",
            FileFormat::Ibin => "ibin",
            FileFormat::RootSim => "rootsim",
        }
    }
}

/// How a scan is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessPathKind {
    /// Walk every row of the file (scan at the bottom of the plan).
    FullScan,
    /// Fetch only the rows a selection vector supplies (a scan pushed up the
    /// plan — the column-shreds mechanism).
    SelectionDriven,
}

/// One field a scan must produce.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WantedField {
    /// Position of the field in the raw file (CSV column, fbin slot, or
    /// rootsim branch/field id).
    pub source_ordinal: usize,
    /// Type to convert to.
    pub data_type: DataType,
}

/// A record-aligned slice of a raw file assigned to one scan instance — the
/// unit of morsel-driven parallelism. The default segment covers the whole
/// file, which is what every unsplit plan uses.
///
/// Invariants the partitioner (`raw-exec`) guarantees and scans rely on:
/// `byte_start` points at the first byte of the record with global row id
/// `first_row`, and `byte_end`/`end_row` (when set) are exclusive bounds
/// landing exactly on a record boundary. Scans emit provenance row ids
/// starting at `first_row`, so batches, recorded shreds, and positional-map
/// fragments from different segments of the same file compose globally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanSegment {
    /// Global row id of the segment's first record.
    pub first_row: u64,
    /// Exclusive upper row bound; `None` means to the end of the file.
    /// Row-addressed formats (fbin, rootsim) partition with this alone.
    pub end_row: Option<u64>,
    /// Byte offset of the first record (text formats; 0 for the whole file).
    pub byte_start: usize,
    /// Exclusive byte bound on a record boundary (text formats); `None`
    /// means to the end of the buffer.
    pub byte_end: Option<usize>,
}

impl ScanSegment {
    /// Whether this segment is the whole file (the unsplit fast path).
    pub fn is_whole_file(&self) -> bool {
        *self == ScanSegment::default()
    }

    /// A row-range segment for row-addressed formats.
    pub fn rows(first_row: u64, end_row: u64) -> ScanSegment {
        ScanSegment { first_row, end_row: Some(end_row), byte_start: 0, byte_end: None }
    }
}

/// A complete access-path specification.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessPathSpec {
    /// File format (selects the plug-in).
    pub format: FileFormat,
    /// Full file schema (source ordinals + types); partial schemas allowed.
    pub schema: Schema,
    /// Fields to read, in output order. Source ordinals must be distinct
    /// (planners deduplicate column sets before building specs).
    pub wanted: Vec<WantedField>,
    /// Full scan vs selection-driven.
    pub kind: AccessPathKind,
    /// Columns (source ordinals) whose positions the scan must record into a
    /// positional map while it runs. Empty for formats with deterministic
    /// positions (the paper: positional maps are pure overhead there).
    pub record_positions: Vec<usize>,
}

impl AccessPathSpec {
    /// Stable fingerprint for the template cache (FNV-1a over a canonical
    /// rendering, combined with the schema fingerprint).
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325 ^ self.schema.fingerprint();
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100000001b3);
            }
        };
        eat(self.format.name().as_bytes());
        eat(&[match self.kind {
            AccessPathKind::FullScan => 1,
            AccessPathKind::SelectionDriven => 2,
        }]);
        for w in &self.wanted {
            eat(&(w.source_ordinal as u64).to_le_bytes());
            eat(w.data_type.name().as_bytes());
        }
        eat(&[0xab]);
        for &c in &self.record_positions {
            eat(&(c as u64).to_le_bytes());
        }
        h
    }

    /// The source ordinals of the wanted fields, in output order.
    pub fn wanted_ordinals(&self) -> Vec<usize> {
        self.wanted.iter().map(|w| w.source_ordinal).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(wanted: Vec<usize>, kind: AccessPathKind) -> AccessPathSpec {
        let schema = Schema::uniform(10, DataType::Int64);
        AccessPathSpec {
            format: FileFormat::Csv,
            wanted: wanted
                .into_iter()
                .map(|c| WantedField { source_ordinal: c, data_type: DataType::Int64 })
                .collect(),
            schema,
            kind,
            record_positions: vec![0],
        }
    }

    #[test]
    fn fingerprint_stability_and_sensitivity() {
        let a = spec(vec![0, 2], AccessPathKind::FullScan);
        assert_eq!(a.fingerprint(), spec(vec![0, 2], AccessPathKind::FullScan).fingerprint());
        assert_ne!(a.fingerprint(), spec(vec![0, 3], AccessPathKind::FullScan).fingerprint());
        assert_ne!(
            a.fingerprint(),
            spec(vec![0, 2], AccessPathKind::SelectionDriven).fingerprint()
        );
        let mut b = spec(vec![0, 2], AccessPathKind::FullScan);
        b.record_positions = vec![0, 5];
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = spec(vec![0, 2], AccessPathKind::FullScan);
        c.format = FileFormat::Fbin;
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn wanted_ordinals_in_order() {
        let s = spec(vec![7, 1], AccessPathKind::FullScan);
        assert_eq!(s.wanted_ordinals(), vec![7, 1]);
    }
}
