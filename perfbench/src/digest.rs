//! Virtual-time output digests and the check against them.
//!
//! Every workload reports its outputs as cells of named integer fields
//! (makespans in ns, counters, moved pages, residency). The expected
//! digests for the default seed live in `expected.txt`, one
//! `<workload> <cell> <field> <value>` line per field, so a mismatch can
//! name the workload, cell and field that moved.

use std::collections::BTreeMap;

/// Fields of one cell, by name.
pub type Fields = BTreeMap<String, u64>;

/// A workload's cells, by name.
pub type Digest = BTreeMap<String, Fields>;

/// One cell of output: a name and its fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Unique within the workload.
    pub name: String,
    /// Field values, in report order.
    pub fields: Vec<(&'static str, u64)>,
}

impl Cell {
    /// An empty cell.
    pub fn new(name: impl Into<String>) -> Cell {
        Cell {
            name: name.into(),
            fields: Vec::new(),
        }
    }

    /// Append a field.
    pub fn field(mut self, name: &'static str, value: u64) -> Cell {
        self.fields.push((name, value));
        self
    }
}

/// The digest of a pass's cells.
pub fn digest(cells: &[Cell]) -> Digest {
    cells
        .iter()
        .map(|c| {
            let fields = c.fields.iter().map(|&(k, v)| (k.to_string(), v)).collect();
            (c.name.clone(), fields)
        })
        .collect()
}

/// Parse expected-digest text into per-workload digests. Blank lines and
/// `#` comments are skipped.
pub fn parse(text: &str) -> Result<BTreeMap<String, Digest>, String> {
    let mut out: BTreeMap<String, Digest> = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        let [workload, cell, field, value] = parts[..] else {
            return Err(format!("line {}: expected 4 columns: {line}", i + 1));
        };
        let value = value
            .parse::<u64>()
            .map_err(|e| format!("line {}: {e}: {line}", i + 1))?;
        let prev = out
            .entry(workload.to_string())
            .or_default()
            .entry(cell.to_string())
            .or_default()
            .insert(field.to_string(), value);
        if prev.is_some() {
            return Err(format!("line {}: duplicate field: {line}", i + 1));
        }
    }
    Ok(out)
}

/// Render a digest as expected-digest lines, sorted by cell and field.
pub fn render(workload: &str, digest: &Digest) -> String {
    let mut out = String::new();
    for (cell, fields) in digest {
        for (k, v) in fields {
            out.push_str(&format!("{workload} {cell} {k} {v}\n"));
        }
    }
    out
}

/// One cell that did not match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// The cell's name.
    pub cell: String,
    /// One line per differing field, naming workload, cell, field and
    /// both values.
    pub messages: Vec<String>,
}

/// Compare `actual` against `expected`; one [`Mismatch`] per cell that
/// differs, is missing, or is unexpected.
pub fn diff(workload: &str, expected: &Digest, actual: &Digest) -> Vec<Mismatch> {
    let names: std::collections::BTreeSet<&String> = expected.keys().chain(actual.keys()).collect();
    let empty = Fields::new();
    names
        .into_iter()
        .filter_map(|cell| {
            let messages = match (expected.get(cell), actual.get(cell)) {
                (Some(_), None) => vec![format!(
                    "{workload}: cell {cell}: expected, but the run did not produce it"
                )],
                (None, Some(_)) => vec![format!(
                    "{workload}: cell {cell}: produced, but has no expected value"
                )],
                (e, a) => field_messages(workload, cell, e.unwrap_or(&empty), a.unwrap_or(&empty)),
            };
            (!messages.is_empty()).then(|| Mismatch {
                cell: cell.clone(),
                messages,
            })
        })
        .collect()
}

fn field_messages(workload: &str, cell: &str, expected: &Fields, actual: &Fields) -> Vec<String> {
    let names: std::collections::BTreeSet<&String> = expected.keys().chain(actual.keys()).collect();
    names
        .into_iter()
        .filter_map(|field| {
            let show = |v: Option<&u64>| v.map_or("nothing".to_string(), u64::to_string);
            let (e, a) = (expected.get(field), actual.get(field));
            (e != a).then(|| {
                format!(
                    "{workload}: cell {cell}, field {field}: expected {}, got {}",
                    show(e),
                    show(a)
                )
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells() -> Vec<Cell> {
        vec![
            Cell::new("static.n2048.bs64")
                .field("makespan_ns", 330)
                .field("remote_accesses", 7),
            Cell::new("next_touch.n2048.bs64").field("makespan_ns", 450),
        ]
    }

    #[test]
    fn render_then_parse_round_trips() {
        let text = format!("# header\n\n{}", render("lu", &digest(&cells())));
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed["lu"], digest(&cells()));
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse("lu cell field").is_err());
        assert!(parse("lu cell field x").is_err());
        assert!(parse("lu cell field 1\nlu cell field 2").is_err());
    }

    #[test]
    fn diff_names_workload_cell_field_and_both_values() {
        let expected = digest(&cells());
        let mut changed = cells();
        changed[0].fields[1].1 = 9;
        let got = diff("lu", &expected, &digest(&changed));
        assert_eq!(
            got,
            vec![Mismatch {
                cell: "static.n2048.bs64".into(),
                messages: vec![
                    "lu: cell static.n2048.bs64, field remote_accesses: expected 7, got 9".into()
                ],
            }]
        );
        assert!(diff("lu", &expected, &expected).is_empty());
    }

    #[test]
    fn diff_reports_missing_and_extra_cells_and_fields() {
        let expected = digest(&cells());
        let mut changed = cells();
        changed.remove(1);
        changed[0].fields.pop();
        changed.push(Cell::new("extra").field("makespan_ns", 1));
        let got = diff("lu", &expected, &digest(&changed));
        let msgs: Vec<&str> = got
            .iter()
            .flat_map(|m| m.messages.iter().map(String::as_str))
            .collect();
        assert_eq!(
            msgs,
            vec![
                "lu: cell extra: produced, but has no expected value",
                "lu: cell next_touch.n2048.bs64: expected, but the run did not produce it",
                "lu: cell static.n2048.bs64, field remote_accesses: expected 7, got nothing",
            ]
        );
    }
}
