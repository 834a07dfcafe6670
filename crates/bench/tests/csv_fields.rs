//! Every CSV `reproduce --quick` writes reads back, per RFC 4180, as rows
//! of exactly its header's field count. Format labels such as `posit<8,2>`
//! and `decimal_accuracy`'s range headers hold commas, so their cells
//! must be quoted.

use std::fs;
use std::process::{Command, Stdio};

/// The fields of one CSV record per RFC 4180 (no artifact writes a line
/// break inside a cell, so a record is one line).
fn fields(line: &str) -> Vec<String> {
    let (mut fields, mut field, mut quoted) = (Vec::new(), String::new(), false);
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match (c, quoted) {
            ('"', true) if chars.peek() == Some(&'"') => {
                chars.next();
                field.push('"');
            }
            ('"', _) => quoted = !quoted,
            (',', false) => fields.push(std::mem::take(&mut field)),
            (c, _) => field.push(c),
        }
    }
    assert!(!quoted, "unterminated quote in {line:?}");
    fields.push(field);
    fields
}

#[test]
fn fields_follow_rfc_4180() {
    assert_eq!(
        fields("a,\"b, c\",\"say \"\"hi\"\"\","),
        ["a", "b, c", "say \"hi\"", ""]
    );
}

#[test]
fn every_reproduced_csv_row_has_its_headers_field_count() {
    let dir = std::env::temp_dir().join(format!("dp_bench_csv_fields_{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let status = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .arg("--quick")
        .current_dir(&dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert!(status.success(), "reproduce --quick: {status}");
    let mut csvs: Vec<_> = fs::read_dir(dir.join("results"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|e| e == "csv"))
        .collect();
    csvs.sort();
    assert_eq!(csvs.len(), 11, "{csvs:?}");
    let mut quoting = 0;
    for path in &csvs {
        let text = fs::read_to_string(path).unwrap();
        let mut lines = text.lines();
        let header = fields(lines.next().expect("a header line"));
        let mut rows = 0;
        for line in lines {
            let got = fields(line).len();
            assert_eq!(got, header.len(), "{path:?}: {line:?} under {header:?}");
            rows += 1;
        }
        assert!(rows > 0, "{path:?} has no rows");
        quoting += text.contains('"') as usize;
        if path.ends_with("decimal_accuracy.csv") {
            let ranges = ["dnn [0.01, 1]", "wide [1e-4, 1e4]", "tiny [1e-6, 1e-2]"];
            assert_eq!(header, [["format"].as_slice(), &ranges].concat());
        }
    }
    // The cells that hold commas are there: the check above is not vacuous.
    assert!(quoting >= 8, "{quoting} of the CSVs quote a cell");
    fs::remove_dir_all(dir).unwrap();
}
