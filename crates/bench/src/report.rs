//! Small table / CSV / plot rendering helpers shared by the artifacts.

use std::fs;
use std::io;
use std::path::Path;

/// Renders rows as an aligned ASCII table with a header.
///
/// ```
/// let t = dp_bench::render_table(
///     &["format", "luts"],
///     &[vec!["posit<8,0>".to_string(), "652".to_string()]],
/// );
/// assert!(t.contains("posit<8,0>"));
/// ```
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<&str>| {
        let padded = cells.iter().zip(&widths).map(|(c, &w)| format!("{c:<w$}"));
        padded.collect::<Vec<_>>().join("  ") + "\n"
    };
    let rule: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
    let mut out = line(header.to_vec()) + &line(rule.iter().map(String::as_str).collect());
    for row in rows {
        out += &line(row.iter().map(String::as_str).collect());
    }
    out
}

/// Writes rows as CSV to `path` (creates its directory if needed), each
/// cell holding a comma, a quote or a line break quoted per RFC 4180.
///
/// # Errors
///
/// Propagates I/O errors from creating the directory or writing the file.
pub fn write_csv<P: AsRef<Path>>(path: P, header: &[&str], rows: &[Vec<String>]) -> io::Result<()> {
    if let Some(parent) = path.as_ref().parent() {
        fs::create_dir_all(parent)?;
    }
    let field = |c: &&str| match c.contains([',', '"', '\n', '\r']) {
        true => format!("\"{}\"", c.replace('"', "\"\"")),
        false => c.to_string(),
    };
    let line = |cells: Vec<&str>| cells.iter().map(field).collect::<Vec<_>>().join(",") + "\n";
    let mut csv = line(header.to_vec());
    for row in rows {
        csv += &line(row.iter().map(String::as_str).collect());
    }
    fs::write(path, csv)
}

/// A tiny ASCII scatter/line plot for terminal figure output.
///
/// Each series is a set of `(x, y)` points drawn with its own glyph on a
/// shared log-or-linear canvas. This is deliberately minimal — the CSVs are
/// the real artifact; the plot gives the figure's *shape* at a glance.
#[derive(Debug, Clone)]
pub struct Ascii {
    width: usize,
    height: usize,
    log_y: bool,
    series: Vec<Series>,
}

/// One plotted `(x, y)` point.
type Point = (f64, f64);

/// One plotted series: glyph, legend name, points.
type Series = (char, String, Vec<Point>);

impl Ascii {
    /// Creates a canvas of `width × height` characters; `log_y` plots the
    /// y axis in log10.
    pub fn new(width: usize, height: usize, log_y: bool) -> Self {
        Ascii {
            width: width.max(16),
            height: height.max(4),
            log_y,
            series: Vec::new(),
        }
    }

    /// Adds a named series drawn with `glyph`.
    pub fn series(mut self, glyph: char, name: &str, pts: impl IntoIterator<Item = Point>) -> Self {
        self.series
            .push((glyph, name.to_string(), pts.into_iter().collect()));
        self
    }

    /// Renders the canvas with axes and a legend.
    pub fn render(&self) -> String {
        if self.series.iter().all(|(_, _, pts)| pts.is_empty()) {
            return String::from("(empty plot)\n");
        }
        let (w, h) = (self.width, self.height);
        let y_of = |y: f64| if self.log_y { y.max(1e-300).log10() } else { y };
        let (mut x0, mut y0) = (f64::INFINITY, f64::INFINITY);
        let (mut x1, mut y1) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for &(x, y) in self.series.iter().flat_map(|(_, _, pts)| pts) {
            (x0, x1) = (x0.min(x), x1.max(x));
            (y0, y1) = (y0.min(y_of(y)), y1.max(y_of(y)));
        }
        if (x1 - x0).abs() < 1e-12 {
            x1 = x0 + 1.0;
        }
        if (y1 - y0).abs() < 1e-12 {
            y1 = y0 + 1.0;
        }
        let mut grid = vec![vec![' '; w]; h];
        for (glyph, _, pts) in &self.series {
            for &(x, y) in pts {
                let cx = ((x - x0) / (x1 - x0) * (w - 1) as f64).round() as usize;
                let cy = ((y_of(y) - y0) / (y1 - y0) * (h - 1) as f64).round() as usize;
                grid[h - 1 - cy.min(h - 1)][cx.min(w - 1)] = *glyph;
            }
        }
        let (prefix, digits) = if self.log_y { ("1e", 1) } else { ("", 3) };
        let label = |v: f64| format!("{prefix}{v:.digits$}");
        let mut out = format!("{:>10} +{}\n", label(y1), "-".repeat(w));
        for (i, row) in grid.iter().enumerate() {
            let y = if i == h - 1 { label(y0) } else { String::new() };
            out += &format!("{y:>10} |{}\n", row.iter().collect::<String>());
        }
        out += &format!("{:>12}{x0:<.3} .. {x1:.3}\n", "x: ");
        for (glyph, name, _) in &self.series {
            out += &format!("{:>12}{glyph} = {name}\n", "");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = render_table(
            &["a", "bbbb"],
            &[
                vec!["x".into(), "1".into()],
                vec!["longer".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a     "));
        assert!(lines[2].starts_with("x"));
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join("dp_bench_test_csv");
        let path = dir.join("t.csv");
        write_csv(&path, &["x", "y"], &[vec!["1".into(), "2".into()]]).unwrap();
        let s = std::fs::read_to_string(&path).unwrap();
        assert_eq!(s, "x,y\n1,2\n");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn ascii_plot_renders() {
        let p = Ascii::new(20, 6, false)
            .series('o', "s1", vec![(1.0, 1.0), (2.0, 2.0)])
            .series('x', "s2", vec![(1.5, 1.5)]);
        let s = p.render();
        assert!(s.contains('o') && s.contains('x') && s.contains("s1"));
        assert!(Ascii::new(10, 4, true).render().contains("empty"));
    }
}
