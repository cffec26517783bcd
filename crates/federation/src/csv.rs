//! CSV parsing and printing over [`Value`] — the stand-in for the paper's
//! Excel reliability and safety-mechanism spreadsheets (Tables II & III).

use crate::error::{FederationDiagnostic, FederationError, Result};
use crate::value::Value;

/// Parses a CSV document with a header row into a list of records.
///
/// Cells are auto-typed: integers become [`Value::Int`], other numerics
/// [`Value::Real`], `true`/`false` become booleans, empty cells become
/// [`Value::Null`], and everything else stays a string.
///
/// Quoted fields support embedded commas, doubled quotes and newlines.
///
/// # Errors
///
/// Returns [`FederationError::Parse`] when a data row has more cells than
/// the header or a quoted field is unterminated.
///
/// # Examples
///
/// ```
/// use decisive_federation::{csv, Value};
///
/// # fn main() -> Result<(), decisive_federation::FederationError> {
/// let rows = csv::parse("Component,FIT\nDiode,10\nInductor,15\n")?;
/// assert_eq!(rows.len(), Some(2));
/// assert_eq!(rows.at(0).unwrap().get("FIT"), Some(&Value::Int(10)));
/// # Ok(())
/// # }
/// ```
pub fn parse(input: &str) -> Result<Value> {
    parse_rows(input, "csv", false).map(|(rows, _)| rows)
}

/// Parses CSV like [`parse`], but never fails: malformed rows are skipped
/// and reported as [`FederationDiagnostic`]s instead. `source` labels the
/// diagnostics (typically the file path).
///
/// Two recoverable defects are handled: a data row with more cells than
/// the header (that row is dropped, one diagnostic) and an unterminated
/// quoted field (the complete rows before it are kept, one truncation
/// diagnostic for the tail).
pub fn parse_lenient(input: &str, source: &str) -> (Value, Vec<FederationDiagnostic>) {
    match parse_rows(input, source, true) {
        Ok(out) => out,
        // Lenient parses report defects as diagnostics, never as errors.
        Err(_) => unreachable!("lenient csv parse is infallible"),
    }
}

/// The one CSV parse behind [`parse`] and [`parse_lenient`]. Strict, it
/// fails on the first defect and never returns a diagnostic; lenient, it
/// never fails and reports each skipped row as a diagnostic.
fn parse_rows(
    input: &str,
    source: &str,
    lenient: bool,
) -> Result<(Value, Vec<FederationDiagnostic>)> {
    let mut diags = Vec::new();
    let (raw, unterminated_at) = parse_raw_inner(input);
    if let Some(line) = unterminated_at {
        if lenient {
            diags.push(FederationDiagnostic::truncated(
                source,
                line,
                "unterminated quoted field; dropped the trailing partial row",
            ));
        } else {
            return Err(FederationError::Parse {
                format: "csv",
                line,
                column: 1,
                message: "unterminated quoted field".to_owned(),
            });
        }
    }
    let mut rows = raw.into_iter();
    let header = match rows.next() {
        Some(h) => h,
        None => return Ok((Value::List(Vec::new()), diags)),
    };
    let mut records = Vec::new();
    for (row_idx, cells) in rows.enumerate() {
        if cells.len() > header.len() {
            let message =
                format!("row has {} cells but the header has {}", cells.len(), header.len());
            if lenient {
                diags.push(FederationDiagnostic::malformed(source, row_idx + 2, message));
                continue;
            }
            return Err(FederationError::Parse {
                format: "csv",
                line: row_idx + 2,
                column: 1,
                message,
            });
        }
        let mut pairs = Vec::with_capacity(header.len());
        for (i, key) in header.iter().enumerate() {
            let cell = cells.get(i).map(String::as_str).unwrap_or("");
            pairs.push((key.clone(), type_cell(cell)));
        }
        records.push(Value::Record(pairs));
    }
    Ok((Value::List(records), diags))
}

/// Prints a list of records as CSV, using the first record's field order as
/// the header.
///
/// Returns an empty string for an empty list; non-record items render as a
/// single-cell row.
pub fn to_string(rows: &Value) -> String {
    let items = match rows.as_list() {
        Some(items) if !items.is_empty() => items,
        _ => return String::new(),
    };
    let header: Vec<&str> = match &items[0] {
        Value::Record(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        _ => Vec::new(),
    };
    let mut out = String::new();
    if !header.is_empty() {
        out.push_str(&header.iter().map(|h| escape(h)).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    for item in items {
        match item {
            Value::Record(_) => {
                let cells: Vec<String> = header
                    .iter()
                    .map(|h| escape(&cell_text(item.get(h).unwrap_or(&Value::Null))))
                    .collect();
                out.push_str(&cells.join(","));
            }
            other => out.push_str(&escape(&cell_text(other))),
        }
        out.push('\n');
    }
    out
}

fn cell_text(v: &Value) -> String {
    match v {
        Value::Null => String::new(),
        Value::Str(s) => s.clone(),
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Real(r) => r.to_string(),
        other => crate::json::to_string(other),
    }
}

fn escape(cell: &str) -> String {
    if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_owned()
    }
}

fn type_cell(cell: &str) -> Value {
    let t = cell.trim();
    if t.is_empty() {
        return Value::Null;
    }
    if let Ok(i) = t.parse::<i64>() {
        return Value::Int(i);
    }
    if let Ok(r) = t.parse::<f64>() {
        return Value::Real(r);
    }
    match t {
        "true" | "TRUE" => Value::Bool(true),
        "false" | "FALSE" => Value::Bool(false),
        _ => Value::Str(cell.to_owned()),
    }
}

/// Splits raw CSV text into rows of cells. Returns the complete rows plus
/// the line of an unterminated quoted field, if the input ends inside one
/// (the partial trailing row is not included in the rows).
fn parse_raw_inner(input: &str) -> (Vec<Vec<String>>, Option<usize>) {
    let mut rows = Vec::new();
    let mut row: Vec<String> = Vec::new();
    let mut cell = String::new();
    let mut chars = input.chars().peekable();
    let mut in_quotes = false;
    let mut line = 1usize;
    let mut saw_any = false;
    while let Some(c) = chars.next() {
        saw_any = true;
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        cell.push('"');
                        chars.next();
                    } else {
                        in_quotes = false;
                    }
                }
                '\n' => {
                    cell.push('\n');
                    line += 1;
                }
                other => cell.push(other),
            }
        } else {
            match c {
                '"' => in_quotes = true,
                ',' => {
                    row.push(std::mem::take(&mut cell));
                }
                '\r' => {}
                '\n' => {
                    row.push(std::mem::take(&mut cell));
                    if !(row.len() == 1 && row[0].is_empty()) {
                        rows.push(std::mem::take(&mut row));
                    } else {
                        row.clear();
                    }
                    line += 1;
                }
                other => cell.push(other),
            }
        }
    }
    if in_quotes {
        return (rows, Some(line));
    }
    if saw_any && (!cell.is_empty() || !row.is_empty()) {
        row.push(cell);
        rows.push(row);
    }
    (rows, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_typed_cells() {
        let v = parse("name,fit,dist,ok\nDiode,10,0.3,true\nMC,300,1.0,false\n").unwrap();
        let first = v.at(0).unwrap();
        assert_eq!(first.get("name"), Some(&Value::from("Diode")));
        assert_eq!(first.get("fit"), Some(&Value::Int(10)));
        assert_eq!(first.get("dist"), Some(&Value::Real(0.3)));
        assert_eq!(first.get("ok"), Some(&Value::Bool(true)));
    }

    #[test]
    fn handles_quotes_commas_and_embedded_newlines() {
        let v = parse("a,b\n\"x,y\",\"say \"\"hi\"\"\"\n\"line1\nline2\",2\n").unwrap();
        assert_eq!(v.at(0).unwrap().get("a"), Some(&Value::from("x,y")));
        assert_eq!(v.at(0).unwrap().get("b"), Some(&Value::from("say \"hi\"")));
        assert_eq!(v.at(1).unwrap().get("a"), Some(&Value::from("line1\nline2")));
    }

    #[test]
    fn short_rows_pad_with_null() {
        let v = parse("a,b,c\n1,2\n").unwrap();
        assert_eq!(v.at(0).unwrap().get("c"), Some(&Value::Null));
    }

    #[test]
    fn long_rows_are_rejected() {
        let err = parse("a,b\n1,2,3\n").unwrap_err();
        assert!(matches!(err, FederationError::Parse { format: "csv", line: 2, .. }));
    }

    #[test]
    fn unterminated_quote_is_rejected() {
        assert!(parse("a\n\"oops\n").is_err());
    }

    #[test]
    fn empty_input_and_blank_lines() {
        assert_eq!(parse("").unwrap(), Value::List(vec![]));
        let v = parse("a,b\n\n1,2\n\n").unwrap();
        assert_eq!(v.len(), Some(1));
    }

    #[test]
    fn roundtrip() {
        let text =
            "Component,FIT,Failure_Mode,Distribution\nDiode,10,Open,0.3\nDiode,10,Short,0.7\n";
        let v = parse(text).unwrap();
        assert_eq!(to_string(&v), text);
    }

    #[test]
    fn to_string_escapes() {
        let rows =
            Value::list([Value::record([("a", Value::from("x,y")), ("b", Value::from("q\"q"))])]);
        let text = to_string(&rows);
        assert_eq!(text, "a,b\n\"x,y\",\"q\"\"q\"\n");
    }

    #[test]
    fn crlf_input() {
        let v = parse("a,b\r\n1,2\r\n").unwrap();
        assert_eq!(v.at(0).unwrap().get("b"), Some(&Value::Int(2)));
    }

    #[test]
    fn lenient_skips_long_rows_with_diagnostics() {
        let (v, diags) = parse_lenient("a,b\n1,2\n1,2,3\n4,5\n", "test.csv");
        assert_eq!(v.len(), Some(2));
        assert_eq!(v.at(1).unwrap().get("a"), Some(&Value::Int(4)));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].kind, crate::error::DiagnosticKind::MalformedRecord);
        assert_eq!(diags[0].line, 3);
        assert_eq!(diags[0].source, "test.csv");
    }

    #[test]
    fn lenient_keeps_rows_before_unterminated_quote() {
        let (v, diags) = parse_lenient("a,b\n1,2\n\"oops,3\n", "t.csv");
        assert_eq!(v.len(), Some(1));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].kind, crate::error::DiagnosticKind::Truncated);
    }
}
