//! Small import/export helpers for load matrices (PGM images for the
//! instance gallery, CSV for external analysis).
//!
//! [`read_csv`] streams the file through one fixed buffer and parses
//! whole lines straight into the matrix: a line of short unsigned
//! decimal fields separated by `,` takes a byte-level fast path that
//! decodes each field with one 8-byte SWAR step (eight ASCII bytes
//! handled as one `u64`). Any other line — blank, whitespace, signs,
//! long fields, non-ASCII, garbage — goes through the general per-line
//! `str` path (`trim`, `split(',')`, `parse::<u32>`). The fast path
//! accepts only lines on which the general path yields the same cells,
//! so the two agree on every input (DESIGN.md §18).

use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;

use rectpart_core::LoadMatrix;

/// Size of the read buffer of [`read_csv`]; a line longer than this
/// grows the buffer.
const READ_CHUNK: usize = 1 << 16;

/// Zero bytes kept after the data in the read buffer, so the 8-byte
/// load of the last field of a chunk never runs past the buffer.
const PAD: usize = 8;

/// Writes the matrix as a binary PGM (P5) image, darkest = zero load,
/// brightest = maximum load (the paper's figure 2 rendering convention:
/// "the whiter the more computation").
pub fn write_pgm(matrix: &LoadMatrix, path: &Path) -> io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    writeln!(out, "P5\n{} {}\n255", matrix.cols(), matrix.rows())?;
    let max = matrix.max_cell().max(1) as f64;
    for r in 0..matrix.rows() {
        let row: Vec<u8> = matrix
            .row(r)
            .iter()
            .map(|&v| ((v as f64 / max).sqrt() * 255.0).round() as u8)
            .collect();
        out.write_all(&row)?;
    }
    out.flush()
}

/// Writes the matrix as headerless CSV (one row per line).
pub fn write_csv(matrix: &LoadMatrix, path: &Path) -> io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    write_csv_to(matrix, &mut out)?;
    out.flush()
}

fn write_csv_to(matrix: &LoadMatrix, out: &mut impl Write) -> io::Result<()> {
    let mut line = Vec::new();
    for r in 0..matrix.rows() {
        line.clear();
        for (c, &v) in matrix.row(r).iter().enumerate() {
            if c > 0 {
                line.push(b',');
            }
            push_decimal(&mut line, v);
        }
        line.push(b'\n');
        out.write_all(&line)?;
    }
    Ok(())
}

/// Appends the decimal digits of `v` (no sign, no leading zeros).
fn push_decimal(line: &mut Vec<u8>, mut v: u32) {
    let mut digits = [0u8; 10];
    let mut start = digits.len();
    for slot in digits.iter_mut().rev() {
        *slot = b'0' + (v % 10) as u8;
        start -= 1;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    line.extend_from_slice(&digits[start..]);
}

/// Reads a matrix from headerless CSV as written by [`write_csv`].
///
/// Blank and whitespace-only lines are skipped; every other line is a
/// row of `,`-separated unsigned 32-bit integers, each optionally
/// surrounded by whitespace. Invalid UTF-8, a bad cell and a row of the
/// wrong width are [`io::ErrorKind::InvalidData`] errors that name the
/// 1-based file line (blank lines counted) and, for a bad cell, the
/// 1-based field.
pub fn read_csv(path: &Path) -> io::Result<LoadMatrix> {
    read_csv_from(File::open(path)?, READ_CHUNK)
}

/// [`read_csv`] over any reader, starting from a `chunk`-byte buffer.
fn read_csv_from(mut src: impl Read, chunk: usize) -> io::Result<LoadMatrix> {
    let mut buf = vec![0u8; chunk.max(1) + PAD];
    // `buf[..filled]` is data not parsed yet: at most one partial line.
    let mut filled = 0;
    let mut rows = CsvRows::default();
    loop {
        if filled == buf.len() - PAD {
            // One line fills the whole buffer: grow it rather than split
            // the line.
            buf.resize(2 * filled + PAD, 0);
        }
        let cap = buf.len() - PAD;
        let n = match src.read(&mut buf[filled..cap]) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let carried = filled;
        filled += n;
        buf[filled..filled + PAD].fill(0);
        // The carried-over partial line holds no newline, so only the
        // new bytes are searched for the last one.
        let Some(last) = buf[carried..filled].iter().rposition(|&b| b == b'\n') else {
            continue;
        };
        let end = carried + last + 1;
        rows.parse_lines(&buf[..end + PAD], end)?;
        buf.copy_within(end..filled, 0);
        filled -= end;
    }
    if filled > 0 {
        // A last line without a final newline.
        rows.line += 1;
        rows.general_line(&buf[..filled])?;
    }
    Ok(rows.finish())
}

/// The matrix being read, row by row.
#[derive(Default)]
struct CsvRows {
    data: Vec<u32>,
    cols: Option<usize>,
    rows: usize,
    /// 1-based number of the file line being parsed (blank lines count).
    line: usize,
}

impl CsvRows {
    /// Parses the complete lines of `buf[..end]`: `buf[end - 1]` is a
    /// newline and `buf` holds [`PAD`] more bytes after `end`.
    fn parse_lines(&mut self, buf: &[u8], end: usize) -> io::Result<()> {
        let mut p = 0;
        while p < end {
            self.line += 1;
            let before = self.data.len();
            p = match fast_line(buf, p, &mut self.data) {
                Some(next) => {
                    self.end_row(before)?;
                    next
                }
                None => {
                    self.data.truncate(before);
                    let next = buf[p..end]
                        .iter()
                        .position(|&b| b == b'\n')
                        .map_or(end, |i| p + i + 1);
                    self.general_line(&buf[p..next])?;
                    next
                }
            };
        }
        Ok(())
    }

    /// Parses one line (with its `\n`, if it has one) the general way:
    /// `BufRead::lines` line ends, UTF-8 check, `trim`, `split(',')`,
    /// `parse::<u32>`.
    fn general_line(&mut self, raw: &[u8]) -> io::Result<()> {
        let raw = match raw.strip_suffix(b"\n") {
            Some(l) => l.strip_suffix(b"\r").unwrap_or(l),
            None => raw,
        };
        let line = std::str::from_utf8(raw)
            .map_err(|e| invalid(format!("line {}: invalid UTF-8: {e}", self.line)))?;
        if line.trim().is_empty() {
            return Ok(());
        }
        let before = self.data.len();
        for (field, tok) in line.split(',').enumerate() {
            let v = tok.trim().parse::<u32>().map_err(|e| {
                invalid(format!(
                    "line {}, field {}: bad cell {tok:?}: {e}",
                    self.line,
                    field + 1
                ))
            })?;
            self.data.push(v);
        }
        self.end_row(before)
    }

    /// Closes the row whose cells start at `data[before]`, checking its
    /// width against the first row's.
    fn end_row(&mut self, before: usize) -> io::Result<()> {
        let width = self.data.len() - before;
        match self.cols {
            None => self.cols = Some(width),
            Some(c) if c != width => {
                return Err(invalid(format!(
                    "line {}: ragged CSV: row has {width} cells, expected {c}",
                    self.line
                )));
            }
            _ => {}
        }
        self.rows += 1;
        Ok(())
    }

    fn finish(self) -> LoadMatrix {
        LoadMatrix::from_vec(self.rows, self.cols.unwrap_or(0), self.data)
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Parses the line starting at `buf[p]` if it is 1–7 ASCII digits per
/// field, fields separated by `,`, ended by `\n` or `\r\n`; pushes its
/// cells and returns the position after the line end. Returns `None`
/// for any other line, possibly after pushing some of its cells.
///
/// Requires a newline at or after `p` with 8 readable bytes past it, so
/// every 8-byte load stays in `buf`.
#[inline]
fn fast_line(buf: &[u8], mut p: usize, data: &mut Vec<u32>) -> Option<usize> {
    loop {
        let chunk = u64::from_le_bytes(buf.get(p..p + 8)?.try_into().ok()?);
        // Digit bytes become 0..=9. A byte is a non-digit iff it or it
        // plus 6 has a high nibble; a carry out of a non-digit byte only
        // reaches later bytes.
        let x = chunk ^ 0x3030_3030_3030_3030;
        let non_digit = (x | x.wrapping_add(0x0606_0606_0606_0606)) & 0xF0F0_F0F0_F0F0_F0F0;
        let n = (non_digit.trailing_zeros() / 8) as usize;
        if n == 0 || n == 8 {
            // An empty field, or 8+ digits.
            return None;
        }
        data.push(swar_digits(x, n));
        p += n;
        match *buf.get(p)? {
            b',' => p += 1,
            b'\n' => return Some(p + 1),
            b'\r' if buf.get(p + 1) == Some(&b'\n') => return Some(p + 2),
            _ => return None,
        }
    }
}

/// The value of the `n` (1..=7) digits in the low bytes of `x` (first
/// digit lowest, each byte 0..=9).
#[inline]
fn swar_digits(x: u64, n: usize) -> u32 {
    // Move the digits to the top; the zero bytes shifted in below them
    // are leading zeros of an 8-digit number.
    let v = x << (8 * (8 - n));
    // Pairs, then quads, then the full 8 digits.
    let v = v.wrapping_mul((10 << 8) | 1) >> 8;
    let v = (v & 0x00FF_00FF_00FF_00FF).wrapping_mul((100 << 16) | 1) >> 16;
    let v = (v & 0x0000_FFFF_0000_FFFF).wrapping_mul((10_000 << 32) | 1) >> 32;
    v as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::BufRead;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("rectpart-io-{}-{name}", std::process::id()));
        p
    }

    /// The line-by-line `str` reader that [`read_csv`] replaced; the
    /// oracle of the differential tests.
    fn read_csv_reference(reader: impl BufRead) -> io::Result<LoadMatrix> {
        let mut data: Vec<u32> = Vec::new();
        let mut cols = None;
        let mut rows = 0;
        for line in reader.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let before = data.len();
            for tok in line.split(',') {
                let v = tok.trim().parse::<u32>().map_err(|e| {
                    io::Error::new(io::ErrorKind::InvalidData, format!("bad cell {tok:?}: {e}"))
                })?;
                data.push(v);
            }
            let width = data.len() - before;
            match cols {
                None => cols = Some(width),
                Some(c) if c != width => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("ragged CSV: row {rows} has {width} cells, expected {c}"),
                    ));
                }
                _ => {}
            }
            rows += 1;
        }
        let cols = cols.unwrap_or(0);
        Ok(LoadMatrix::from_vec(rows, cols, data))
    }

    /// The `String`-per-cell writer that [`write_csv`] replaced.
    fn write_csv_reference(matrix: &LoadMatrix, out: &mut impl Write) -> io::Result<()> {
        let mut line = String::new();
        for r in 0..matrix.rows() {
            line.clear();
            for (c, v) in matrix.row(r).iter().enumerate() {
                if c > 0 {
                    line.push(',');
                }
                line.push_str(&v.to_string());
            }
            writeln!(out, "{line}")?;
        }
        Ok(())
    }

    /// A reader handing out at most `step` bytes per call, so reads end
    /// at every offset.
    struct Trickle<'a> {
        data: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(out.len()).min(self.data.len());
            out[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    fn csv_bytes(m: &LoadMatrix) -> Vec<u8> {
        let mut out = Vec::new();
        write_csv_to(m, &mut out).unwrap();
        out
    }

    /// Asserts the streaming reader agrees with the oracle on `bytes`
    /// (same matrix, or errors of the same kind) at the given buffer
    /// size and read step.
    fn assert_agrees(bytes: &[u8], chunk: usize, step: usize) {
        let want = read_csv_reference(bytes);
        let got = read_csv_from(Trickle { data: bytes, step }, chunk);
        match (&want, &got) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "input {:?}", String::from_utf8_lossy(bytes)),
            (Err(a), Err(b)) => assert_eq!(
                a.kind(),
                b.kind(),
                "input {:?}: {a} vs {b}",
                String::from_utf8_lossy(bytes)
            ),
            _ => panic!(
                "input {:?} (chunk {chunk}, step {step}): oracle {want:?}, streaming {got:?}",
                String::from_utf8_lossy(bytes)
            ),
        }
    }

    fn assert_agrees_everywhere(bytes: &[u8]) {
        for chunk in 1..=64 {
            assert_agrees(bytes, chunk, usize::MAX);
        }
        for step in 1..=9 {
            assert_agrees(bytes, 16, step);
        }
        assert_agrees(bytes, READ_CHUNK, usize::MAX);
    }

    const EDGE_CASES: &[&[u8]] = &[
        b"",
        b"\n",
        b"\n\n\n",
        b"1,2\n3,4\n",
        b"1,2\r\n3,4\r\n",
        b"1,2\r\n3,4\n5,6\r\n",
        b"1,2\n3,4",
        b"1,2\r\n3,4\r",
        b"1,2\n3,4\r",
        b"\n1,2\n3,4\n",
        b"1,2\n\n3,4\n",
        b"1,2\n3,4\n\n",
        b"   \n1,2\n \t \n3,4\n\t\n",
        b"\r\n1,2\r\n\r\n3,4\r\n",
        b"+7,8\n9,10\n",
        b"+,1\n",
        b"0000000001,2\n3,0000000\n",
        b"1234567,7654321\n",
        b"12345678,87654321\n",
        b"123456789,1\n",
        b"1234567890,1\n",
        b"4294967295,0\n",
        b"4294967296,0\n",
        b"99999999999999999999\n",
        b"1,,2\n",
        b",1\n",
        b"1,2,\n",
        b"1,2,\n3,4,\n",
        b",\n",
        b" 1 ,\t2\t\n3, 4\n",
        b"1\t,2\n",
        b"1,2 \n3,4\n",
        b"-1,2\n",
        b"-0\n",
        b"1,x,3\n",
        b"1;2\n",
        b"1.5,2\n",
        b"1,2\n3,4,5\n",
        b"1,2,3\n4,5\n",
        b"1,2\n3\n",
        b"1,\xff\n",
        b"\xff\n",
        b"1,2\n\xc3\x28\n",
        b"\xc2\xa01,2\n3,4\n",
        b"1,2\n\xe2\x80\x83\n3,4\n",
        b"1,\x002\n",
        b"\x00\n",
        b"1,2\x00\n",
        b"12,34\n\r\n56,78\n",
        b"1\r2,3\n",
        b"1,2\r\r\n",
        b"\r",
        b"7",
        b"7\n",
        b"0\n0\n",
        b"1/,:0\n",
        b"/,:\n",
        b"12:,3\n",
        b"1,2:\n",
        b":\n",
        b"9/\n",
    ];

    #[test]
    fn csv_roundtrip() {
        let m = LoadMatrix::from_fn(5, 7, |r, c| (r * 7 + c) as u32);
        let path = tmp("roundtrip.csv");
        write_csv(&m, &path).unwrap();
        let back = read_csv(&path).unwrap();
        assert_eq!(m, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csv_rejects_ragged_rows() {
        let path = tmp("ragged.csv");
        std::fs::write(&path, "1,2,3\n4,5\n").unwrap();
        assert!(read_csv(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csv_rejects_garbage() {
        let path = tmp("garbage.csv");
        std::fs::write(&path, "1,x,3\n").unwrap();
        assert!(read_csv(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_errors_name_line_and_field() {
        let err = |bytes: &[u8]| read_csv_from(bytes, 4).unwrap_err();
        let e = err(b"1,2\n\n3,x\n");
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(
            e.to_string().starts_with("line 3, field 2: bad cell"),
            "{e}"
        );
        let e = err(b"1,2\r\n \r\n3,4\r\n5\r\n");
        assert!(e.to_string().starts_with("line 4: ragged CSV"), "{e}");
        let e = err(b"1\n2\n\xff");
        assert!(e.to_string().starts_with("line 3: invalid UTF-8"), "{e}");
    }

    #[test]
    fn swar_digits_decode_every_length() {
        for v in [
            0u32, 1, 9, 10, 42, 99, 100, 12_345, 999_999, 1_000_000, 9_999_999,
        ] {
            for width in v.to_string().len()..=7 {
                let text = format!("{v:0width$}");
                let mut bytes = [0u8; 8];
                bytes[..width].copy_from_slice(text.as_bytes());
                bytes[width] = b',';
                let x = u64::from_le_bytes(bytes) ^ 0x3030_3030_3030_3030;
                assert_eq!(swar_digits(x, width), v, "{text}");
            }
        }
    }

    #[test]
    fn streaming_reader_agrees_with_reference_on_edge_cases() {
        for bytes in EDGE_CASES {
            assert_agrees_everywhere(bytes);
        }
    }

    #[test]
    fn streaming_reader_agrees_with_reference_on_workloads() {
        let pic = {
            let mut sim = crate::PicSimulation::new(crate::PicConfig {
                rows: 24,
                cols: 20,
                particles: 4000,
                ..crate::PicConfig::default()
            });
            sim.next_snapshot().matrix
        };
        let matrices = [
            crate::uniform(9, 13, 1).build(),
            crate::diagonal(12, 11, 2).build(),
            crate::peak(17, 9, 3).build(),
            crate::multi_peak(10, 16, 4).build(),
            pic,
            LoadMatrix::from_fn(3, 4, |r, c| if (r + c) % 2 == 0 { u32::MAX } else { 0 }),
            // Rows of over 1000 bytes: longer than every starting buffer
            // above, so the buffer must grow.
            LoadMatrix::from_fn(2, 300, |r, c| (r * 1000 + c * 37) as u32),
        ];
        for m in &matrices {
            let bytes = csv_bytes(m);
            assert_agrees_everywhere(&bytes);
            assert_eq!(&read_csv_from(&bytes[..], 7).unwrap(), m);
        }
    }

    #[test]
    fn writer_is_byte_identical_to_reference() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
        let matrices = [
            LoadMatrix::from_fn(1, 1, |_, _| 0),
            LoadMatrix::from_fn(1, 1, |_, _| u32::MAX),
            LoadMatrix::from_fn(1, 1, |_, _| 7),
            LoadMatrix::from_vec(0, 0, Vec::new()),
            LoadMatrix::from_fn(2, 3, |r, c| if r == c { u32::MAX } else { 0 }),
            LoadMatrix::from_fn(13, 17, |_, _| rand::Rng::gen::<u32>(&mut rng)),
            LoadMatrix::from_fn(9, 5, |_, _| rand::Rng::gen_range(&mut rng, 0u32..1000)),
        ];
        for m in &matrices {
            let mut old = Vec::new();
            write_csv_reference(m, &mut old).unwrap();
            assert_eq!(csv_bytes(m), old);
        }
        for v in (0..=9).flat_map(|d| [10u32.pow(d) - 1, 10u32.pow(d)]) {
            let m = LoadMatrix::from_fn(1, 1, |_, _| v);
            let mut old = Vec::new();
            write_csv_reference(&m, &mut old).unwrap();
            assert_eq!(csv_bytes(&m), old, "{v}");
        }
    }

    /// Bytes drawn mostly from the CSV alphabet, with a few other ASCII
    /// and non-ASCII bytes.
    fn csv_like() -> impl Strategy<Value = Vec<u8>> {
        const ALPHABET: &[u8] =
            b"0123456789012345678901234567890123456789,,,,,,\n\n\n\r +\t-x/:\x00\xff\xc3";
        vec(0..ALPHABET.len(), 0..80).prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
    }

    /// Well-formed rows of random width and digit counts, so most inputs
    /// are accepted.
    fn csv_rows() -> impl Strategy<Value = Vec<u8>> {
        (1usize..6, vec((0u32..11, 0u32..u32::MAX), 1..40)).prop_map(|(width, cells)| {
            let mut out = Vec::new();
            for (i, (digits, v)) in cells.into_iter().enumerate() {
                let v = if digits == 10 {
                    v
                } else {
                    v % 10u32.pow(digits)
                };
                out.extend_from_slice(v.to_string().as_bytes());
                out.push(if (i + 1) % width == 0 { b'\n' } else { b',' });
            }
            out
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        #[test]
        fn streaming_reader_agrees_on_arbitrary_bytes(
            bytes in vec(0u8..=255, 0..64),
            chunk in 1usize..40,
        ) {
            assert_agrees(&bytes, chunk, usize::MAX);
        }

        #[test]
        fn streaming_reader_agrees_on_csv_like_bytes(
            bytes in csv_like(),
            chunk in 1usize..40,
            step in 1usize..12,
        ) {
            assert_agrees(&bytes, chunk, step);
        }

        #[test]
        fn streaming_reader_agrees_on_csv_rows(
            bytes in csv_rows(),
            chunk in 1usize..70,
        ) {
            assert_agrees(&bytes, chunk, usize::MAX);
        }
    }

    #[test]
    fn pgm_header_and_size() {
        let m = LoadMatrix::from_fn(3, 4, |r, c| (r + c) as u32);
        let path = tmp("img.pgm");
        write_pgm(&m, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.starts_with(b"P5\n4 3\n255\n"));
        assert_eq!(bytes.len(), b"P5\n4 3\n255\n".len() + 12);
        std::fs::remove_file(&path).ok();
    }
}
