//! Save / load quantized models.
//!
//! A deployed Deep Positron instance is *defined* by its format and its
//! weight/bias bit patterns — exactly what a bitstream generator or an
//! embedded runtime needs. This module serializes a [`QuantizedMlp`] to a
//! small line-oriented text format (stable, diffable, no external
//! dependencies):
//!
//! ```text
//! deep-positron-model v1
//! format posit 8 0
//! dims 4 8 3
//! layer 0
//! w 40 2c ...        # one line per neuron, hex patterns
//! b 12 ...
//! ```

use crate::format::NumericFormat;
use crate::quantized::{QuantizedLayer, QuantizedMlp};
use dp_fixed::FixedFormat;
use dp_minifloat::FloatFormat;
use dp_posit::PositFormat;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// Error from parsing a serialized model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseModelError {
    line: usize,
    message: String,
}

impl ParseModelError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ParseModelError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "model parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseModelError {}

/// Serializes a quantized model to the v1 text format.
pub fn to_string(model: &QuantizedMlp) -> String {
    let mut s = String::from("deep-positron-model v1\n");
    s.push_str(&format!("format {}\n", format_tag(&model.format)));
    let dims: Vec<String> = model.dims().iter().map(|d| d.to_string()).collect();
    s.push_str(&format!("dims {}\n", dims.join(" ")));
    for (i, layer) in model.layers.iter().enumerate() {
        s.push_str(&format!("layer {i}\n"));
        for row in layer.weight_rows() {
            let hex: Vec<String> = row.iter().map(|w| format!("{w:x}")).collect();
            s.push_str(&format!("w {}\n", hex.join(" ")));
        }
        let hex: Vec<String> = layer.biases().iter().map(|b| format!("{b:x}")).collect();
        s.push_str(&format!("b {}\n", hex.join(" ")));
    }
    s
}

/// Parses the v1 text format back into a model.
///
/// The text is untrusted: the declared `dims` are cross-checked against
/// what the text can hold *before* anything is allocated for them, and
/// every pattern must fit the declared format's width.
///
/// # Errors
///
/// Returns [`ParseModelError`] on malformed input (bad magic, unknown
/// format tag, a format with no EMAC datapath at some layer's fan-in,
/// zero / oversized / inconsistent shapes, truncation, non-hex or
/// over-wide patterns), naming the offending line.
pub fn from_str(text: &str) -> Result<QuantizedMlp, ParseModelError> {
    let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l));
    // A missing line is reported at the line number it should have had.
    let end = text.lines().count() + 1;
    let mut next = |what: &str| {
        lines
            .next()
            .ok_or_else(|| ParseModelError::new(end, format!("missing {what}")))
    };
    let (n, magic) = next("magic line")?;
    if magic.trim() != "deep-positron-model v1" {
        return Err(ParseModelError::new(n, "bad magic line"));
    }
    let (format_at, fmt_line) = next("format line")?;
    let format = parse_format(fmt_line).map_err(|m| ParseModelError::new(format_at, m))?;
    let (n, dims_line) = next("dims line")?;
    let dims: Vec<usize> = dims_line
        .strip_prefix("dims ")
        .ok_or_else(|| ParseModelError::new(n, "expected `dims ...`"))?
        .split_whitespace()
        .map(|t| t.parse::<usize>())
        .collect::<Result<_, _>>()
        .map_err(|e| ParseModelError::new(n, format!("bad dim: {e}")))?;
    if dims.len() < 2 {
        return Err(ParseModelError::new(n, "need at least two dims"));
    }
    if dims.contains(&0) {
        return Err(ParseModelError::new(n, "dims must be nonzero"));
    }
    // Every pattern takes at least a hex digit and a separator, so the
    // text bounds the pattern count the dims may declare.
    let patterns = dims.windows(2).try_fold(0usize, |sum, d| {
        sum.checked_add(d[0].checked_add(1)?.checked_mul(d[1])?)
    });
    if patterns.is_none_or(|p| p > text.len() / 2) {
        return Err(ParseModelError::new(
            n,
            format!(
                "dims declare more patterns than a {}-byte file can hold",
                text.len()
            ),
        ));
    }

    // A format with no EMAC datapath at some layer's fan-in could not run
    // a forward pass: refuse it here, at its format line.
    for d in dims.windows(2) {
        format
            .check_emac(d[0] as u64)
            .map_err(|e| ParseModelError::new(format_at, e.to_string()))?;
    }

    let width_mask = u32::MAX >> (32 - format.n());
    let mut layers = Vec::new();
    for (li, d) in dims.windows(2).enumerate() {
        let (fan_in, fan_out) = (d[0], d[1]);
        let (n, header) = next(&format!("layer {li}"))?;
        if header.trim() != format!("layer {li}") {
            return Err(ParseModelError::new(n, format!("expected `layer {li}`")));
        }
        let mut weights = Vec::with_capacity(fan_in * fan_out);
        for _ in 0..fan_out {
            let (n, wline) = next("weight row")?;
            let row = parse_hex_row(wline, "w ", fan_in, width_mask)
                .map_err(|m| ParseModelError::new(n, m))?;
            weights.extend_from_slice(&row);
        }
        let (n, bline) = next("bias row")?;
        let biases = parse_hex_row(bline, "b ", fan_out, width_mask)
            .map_err(|m| ParseModelError::new(n, m))?;
        layers.push(QuantizedLayer::new(fan_in, fan_out, weights, biases));
    }
    Ok(QuantizedMlp { format, layers })
}

/// Writes a model to a file (v1 text format).
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save<P: AsRef<Path>>(model: &QuantizedMlp, path: P) -> io::Result<()> {
    fs::write(path, to_string(model))
}

/// Reads a model from a file.
///
/// # Errors
///
/// Returns an `io::Error` for filesystem problems; parse failures are
/// wrapped as `InvalidData`.
pub fn load<P: AsRef<Path>>(path: P) -> io::Result<QuantizedMlp> {
    let text = fs::read_to_string(path)?;
    from_str(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

fn format_tag(f: &NumericFormat) -> String {
    match f {
        NumericFormat::F32 => "f32".into(),
        NumericFormat::Posit(p) => format!("posit {} {}", p.n(), p.es()),
        NumericFormat::Float(p) => format!("float {} {}", p.we(), p.wf()),
        NumericFormat::Fixed(p) => format!("fixed {} {}", p.n(), p.q()),
    }
}

fn parse_format(line: &str) -> Result<NumericFormat, String> {
    let rest = line
        .strip_prefix("format ")
        .ok_or("expected `format ...`")?;
    let toks: Vec<&str> = rest.split_whitespace().collect();
    let num = |t: &str| t.parse::<u32>().map_err(|e| format!("bad number: {e}"));
    match toks.as_slice() {
        ["f32"] => Ok(NumericFormat::F32),
        ["posit", n, es] => PositFormat::new(num(n)?, num(es)?)
            .map(NumericFormat::Posit)
            .map_err(|e| e.to_string()),
        ["float", we, wf] => FloatFormat::new(num(we)?, num(wf)?)
            .map(NumericFormat::Float)
            .map_err(|e| e.to_string()),
        ["fixed", n, q] => FixedFormat::new(num(n)?, num(q)?)
            .map(NumericFormat::Fixed)
            .map_err(|e| e.to_string()),
        _ => Err(format!("unknown format tag `{rest}`")),
    }
}

/// Parses one `w`/`b` row of `expect` hex patterns, each within the
/// format's `width_mask`.
fn parse_hex_row(
    line: &str,
    prefix: &str,
    expect: usize,
    width_mask: u32,
) -> Result<Vec<u32>, String> {
    let rest = line
        .strip_prefix(prefix)
        .ok_or_else(|| format!("expected `{prefix}...`"))?;
    let row: Vec<u32> = rest
        .split_whitespace()
        .map(|t| match u32::from_str_radix(t, 16) {
            Ok(bits) if bits & !width_mask == 0 => Ok(bits),
            Ok(_) => Err(format!("pattern `{t}` has bits above the format's width")),
            Err(e) => Err(format!("bad hex `{t}`: {e}")),
        })
        .collect::<Result<_, _>>()?;
    if row.len() != expect {
        return Err(format!("expected {expect} entries, got {}", row.len()));
    }
    Ok(row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::Mlp;

    fn model() -> QuantizedMlp {
        let mlp = Mlp::new(&[3, 4, 2], 77);
        QuantizedMlp::quantize(&mlp, NumericFormat::Posit(PositFormat::new(8, 1).unwrap()))
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let m = model();
        let text = to_string(&m);
        let back = from_str(&text).expect("parse");
        assert_eq!(back.format, m.format);
        assert_eq!(back.dims(), m.dims());
        for (a, b) in m.layers.iter().zip(&back.layers) {
            assert_eq!(a, b);
        }
        // And it still infers identically.
        let x = [0.3, 0.6, 0.9];
        assert_eq!(m.infer(&x), back.infer(&x));
    }

    #[test]
    fn roundtrip_all_format_families() {
        let mlp = Mlp::new(&[2, 2], 5);
        for fmt in [
            NumericFormat::F32,
            NumericFormat::Posit(PositFormat::new(6, 0).unwrap()),
            NumericFormat::Float(FloatFormat::new(4, 3).unwrap()),
            NumericFormat::Fixed(FixedFormat::new(8, 6).unwrap()),
        ] {
            let m = QuantizedMlp::quantize(&mlp, fmt);
            let back = from_str(&to_string(&m)).expect("parse");
            assert_eq!(back.format, fmt);
            assert_eq!(back.layers[0].weights(), m.layers[0].weights());
        }
    }

    #[test]
    fn file_roundtrip() {
        let m = model();
        let path = std::env::temp_dir().join("dp_model_io_test.dpm");
        save(&m, &path).expect("save");
        let back = load(&path).expect("load");
        assert_eq!(back.layers[0].biases(), m.layers[0].biases());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn parse_errors_are_located() {
        assert!(from_str("").is_err());
        assert!(from_str("wrong magic").is_err());
        let e = from_str("deep-positron-model v1\nformat posit 99 0\ndims 2 2\n").unwrap_err();
        assert_eq!(e.line, 2);
        // A valid posit<8,6> has no EMAC datapath (es > n − 3).
        let text = "deep-positron-model v1\nformat posit 8 6\ndims 1 1\nlayer 0\nw 40\nb 0\n";
        let e = from_str(text).unwrap_err();
        let why = NumericFormat::Posit(PositFormat::new(8, 6).unwrap())
            .try_make_emac(1)
            .unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (2, why.to_string().as_str()));
        let e = from_str("deep-positron-model v1\nformat f32\ndims 2\n").unwrap_err();
        assert!(e.to_string().contains("two dims"));
        // Wrong row width.
        let text = "deep-positron-model v1\nformat f32\ndims 2 1\nlayer 0\nw 1\nb 1\n";
        assert!(from_str(text).is_err());
        // Bad hex.
        let text = "deep-positron-model v1\nformat f32\ndims 1 1\nlayer 0\nw zz\nb 1\n";
        assert!(from_str(text).is_err());
    }

    #[test]
    fn hostile_dims_are_errors_not_aborts() {
        let with_dims =
            |dims: &str| format!("deep-positron-model v1\nformat posit 8 0\ndims {dims}\n");
        for dims in [
            "1000000000000 2",                           // 8 TB of weights
            "4294967296 4294967296",                     // product overflows usize
            "18446744073709551615 18446744073709551615", // sum overflows too
            "2 18446744073709551615 2",
            "0 2",
            "2 0",
            "3 0 2",
        ] {
            let e = from_str(&with_dims(dims)).unwrap_err();
            assert_eq!(e.line, 3, "dims {dims}: {e}");
        }
        // A dim that does not even fit usize is a parse error on the same line.
        let e = from_str(&with_dims("99999999999999999999999 2")).unwrap_err();
        assert_eq!(e.line, 3);
    }

    #[test]
    fn truncation_at_every_line_boundary_is_located() {
        let text = to_string(&model());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3 + (1 + 4 + 1) + (1 + 2 + 1));
        for keep in 0..lines.len() {
            // A cut right after the dims line is already caught there (the
            // dims promise more than the file holds); every other cut
            // reports the first missing line.
            let want = if keep == 3 { 3 } else { keep + 1 };
            // With and without the cut's trailing newline.
            for cut in [
                lines[..keep].join("\n"),
                lines[..keep].iter().map(|l| format!("{l}\n")).collect(),
            ] {
                let e = from_str(&cut).unwrap_err();
                assert_eq!(e.line, want, "{keep} lines kept: {e}");
            }
        }
        assert!(from_str(&text).is_ok());
    }

    #[test]
    fn over_wide_patterns_are_rejected_with_line_and_token() {
        let text = "deep-positron-model v1\nformat posit 8 0\ndims 2 1\nlayer 0\nw 1ff 40\nb 12\n";
        let e = from_str(text).unwrap_err();
        assert_eq!(e.line, 5);
        assert!(e.to_string().contains("1ff"), "{e}");
        let e = from_str(&text.replace("1ff", "ff").replace("b 12", "b 100")).unwrap_err();
        assert_eq!(e.line, 6);
        assert!(e.to_string().contains("100"), "{e}");
        // In range: loads. F32 uses all 32 bits.
        assert!(from_str(&text.replace("1ff", "ff")).is_ok());
        let f32_text =
            "deep-positron-model v1\nformat f32\ndims 1 1\nlayer 0\nw ffffffff\nb 3f800000\n";
        assert!(from_str(f32_text).is_ok());
    }

    #[test]
    fn format_is_human_auditable() {
        let text = to_string(&model());
        assert!(text.starts_with("deep-positron-model v1\n"));
        assert!(text.contains("format posit 8 1"));
        assert!(text.contains("dims 3 4 2"));
        assert!(text.contains("layer 1"));
    }
}
