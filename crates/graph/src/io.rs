//! Edge-list file I/O.
//!
//! The paper's input format is "an unsorted edge list, with each edge
//! represented by its source and target vertex and an optional weight"
//! (§8). This module reads and writes that format in two encodings:
//!
//! - **binary**: fixed-width little-endian records matching the storage
//!   byte model (4- or 8-byte ids depending on vertex count, optional
//!   weight), with a small self-describing header;
//! - **text**: whitespace-separated `src dst [weight]` lines, `#` comments
//!   allowed — the de-facto exchange format (SNAP, Graph500).

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::size::SizeModel;
use crate::types::{Edge, InputGraph};

/// Magic bytes of the binary format ("CHAOSEL1").
const MAGIC: &[u8; 8] = b"CHAOSEL1";

/// Writes the binary edge-list format.
///
/// # Errors
///
/// Returns any I/O error from the underlying writer.
pub fn write_binary(g: &InputGraph, path: &Path) -> std::io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    let sizes = SizeModel::for_graph(g.num_vertices, g.weighted);
    w.write_all(MAGIC)?;
    w.write_all(&g.num_vertices.to_le_bytes())?;
    w.write_all(&g.num_edges().to_le_bytes())?;
    w.write_all(&[u8::from(g.weighted), sizes.id_bytes as u8])?;
    for e in &g.edges {
        if sizes.id_bytes == 4 {
            w.write_all(&(e.src as u32).to_le_bytes())?;
            w.write_all(&(e.dst as u32).to_le_bytes())?;
        } else {
            w.write_all(&e.src.to_le_bytes())?;
            w.write_all(&e.dst.to_le_bytes())?;
        }
        if g.weighted {
            w.write_all(&e.weight.to_le_bytes())?;
        }
    }
    w.flush()
}

/// Reads the binary edge-list format.
///
/// # Errors
///
/// Returns an `InvalidData` error for malformed headers or truncated
/// payloads, or any underlying I/O error.
pub fn read_binary(path: &Path) -> std::io::Result<InputGraph> {
    let mut r = BufReader::new(std::fs::File::open(path)?);
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("not a chaos edge-list file"));
    }
    let mut u64buf = [0u8; 8];
    r.read_exact(&mut u64buf)?;
    let num_vertices = u64::from_le_bytes(u64buf);
    r.read_exact(&mut u64buf)?;
    let num_edges = u64::from_le_bytes(u64buf);
    let mut flags = [0u8; 2];
    r.read_exact(&mut flags)?;
    let weighted = flags[0] != 0;
    let id_bytes = flags[1] as usize;
    if id_bytes != 4 && id_bytes != 8 {
        return Err(bad("unsupported id width"));
    }
    // Slurp the payload and decode from the slice: per-record
    // `read_exact` calls pay the reader's buffer management three times
    // per edge, which dominates warm cache loads of multi-million-edge
    // graphs.
    let rec = id_bytes * 2 + if weighted { 4 } else { 0 };
    let mut payload = Vec::new();
    r.read_to_end(&mut payload)?;
    let need = (num_edges as usize)
        .checked_mul(rec)
        .ok_or_else(|| bad("edge count overflows payload size"))?;
    if payload.len() < need {
        return Err(bad("truncated edge payload"));
    }
    let le4 = |b: &[u8]| u32::from_le_bytes(b[..4].try_into().expect("4-byte slice"));
    let le8 = |b: &[u8]| u64::from_le_bytes(b[..8].try_into().expect("8-byte slice"));
    let mut edges = Vec::with_capacity(num_edges as usize);
    for chunk in payload[..need].chunks_exact(rec) {
        let (src, dst) = if id_bytes == 4 {
            (le4(chunk) as u64, le4(&chunk[4..]) as u64)
        } else {
            (le8(chunk), le8(&chunk[8..]))
        };
        let weight = if weighted {
            f32::from_le_bytes(chunk[rec - 4..].try_into().expect("4-byte slice"))
        } else {
            1.0
        };
        if src >= num_vertices || dst >= num_vertices {
            return Err(bad("edge endpoint out of range"));
        }
        edges.push(Edge { src, dst, weight });
    }
    Ok(InputGraph {
        num_vertices,
        edges,
        weighted,
    })
}

/// Writes the text format (`src dst [weight]` per line).
///
/// # Errors
///
/// Returns any I/O error from the underlying writer.
pub fn write_text(g: &InputGraph, path: &Path) -> std::io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "# chaos edge list: {} vertices, {} edges",
        g.num_vertices,
        g.num_edges()
    )?;
    for e in &g.edges {
        if g.weighted {
            writeln!(w, "{} {} {}", e.src, e.dst, e.weight)?;
        } else {
            writeln!(w, "{} {}", e.src, e.dst)?;
        }
    }
    w.flush()
}

/// Reads the text format. Vertices are inferred as `max id + 1` unless any
/// line fails to parse; weights present on any line make the graph
/// weighted.
///
/// # Errors
///
/// Returns an `InvalidData` error for unparseable lines and for vertex id
/// `u64::MAX`, which leaves no room for the vertex count.
pub fn read_text(path: &Path) -> std::io::Result<InputGraph> {
    let r = BufReader::new(std::fs::File::open(path)?);
    let bad = |line: usize, msg: &str| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("line {line}: {msg}"),
        )
    };
    let mut edges = Vec::new();
    let mut weighted = false;
    let mut num_vertices = 0u64;
    for (no, line) in r.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let src: u64 = it
            .next()
            .ok_or_else(|| bad(no + 1, "missing source"))?
            .parse()
            .map_err(|_| bad(no + 1, "bad source id"))?;
        let dst: u64 = it
            .next()
            .ok_or_else(|| bad(no + 1, "missing target"))?
            .parse()
            .map_err(|_| bad(no + 1, "bad target id"))?;
        let weight = match it.next() {
            Some(tok) => {
                weighted = true;
                tok.parse::<f32>().map_err(|_| bad(no + 1, "bad weight"))?
            }
            None => 1.0,
        };
        let count = src
            .max(dst)
            .checked_add(1)
            .ok_or_else(|| bad(no + 1, "vertex id 2^64 - 1 is out of range"))?;
        num_vertices = num_vertices.max(count);
        edges.push(Edge { src, dst, weight });
    }
    Ok(InputGraph {
        num_vertices,
        edges,
        weighted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder;
    use crate::rmat::RmatConfig;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("chaos-io-{}-{name}", std::process::id()))
    }

    #[test]
    fn binary_roundtrip_unweighted_and_weighted() {
        for g in [
            RmatConfig::paper(8).generate(),
            builder::gnm(50, 300, true, 3),
        ] {
            let p = tmp("bin");
            write_binary(&g, &p).expect("write");
            let back = read_binary(&p).expect("read");
            assert_eq!(back.num_vertices, g.num_vertices);
            assert_eq!(back.weighted, g.weighted);
            assert_eq!(back.edges.len(), g.edges.len());
            assert!(back.edges.iter().zip(&g.edges).all(|(a, b)| a == b));
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn text_roundtrip() {
        let g = builder::gnm(40, 200, true, 5);
        let p = tmp("txt");
        write_text(&g, &p).expect("write");
        let back = read_text(&p).expect("read");
        assert!(back.weighted);
        assert_eq!(back.edges.len(), g.edges.len());
        for (a, b) in back.edges.iter().zip(&g.edges) {
            assert_eq!((a.src, a.dst), (b.src, b.dst));
            assert!((a.weight - b.weight).abs() < 1e-4);
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn text_accepts_comments_and_blanks() {
        let p = tmp("cmt");
        std::fs::write(&p, "# header\n\n0 1\n1 2\n# trailing\n").expect("write");
        let g = read_text(&p).expect("read");
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_vertices, 3);
        assert!(!g.weighted);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        let p = tmp("badbin");
        std::fs::write(&p, b"NOTCHAOS").expect("write");
        assert!(read_binary(&p).is_err());
        std::fs::remove_file(&p).ok();

        let p = tmp("badtxt");
        std::fs::write(&p, "0 x\n").expect("write");
        assert!(read_text(&p).is_err());
        std::fs::remove_file(&p).ok();
    }

    /// Seeded byte mutation of one valid file: every prefix of `base`
    /// (`base.len() + 1` truncations, the empty file included), then
    /// [`MUTANTS`] copies of it with 1 to 8 bits flipped, every fourth of
    /// them also truncated at a random length. Every mutant must come back
    /// `Ok` or `Err`; a panic fails the test, naming the mutant. Returns
    /// how many came back `Ok` and how many `Err`.
    fn mutate(
        name: &str,
        base: &[u8],
        seed: u64,
        parse: fn(&Path) -> std::io::Result<InputGraph>,
    ) -> (usize, usize) {
        let p = tmp(name);
        let mut rng = chaos_sim::Rng::new(seed);
        let truncations =
            (0..=base.len()).map(|len| (format!("prefix {len}"), base[..len].to_vec()));
        let flips = (0..MUTANTS).map(|i| {
            let mut bytes = base.to_vec();
            for _ in 0..=rng.below(8) {
                let bit = rng.below(bytes.len() as u64 * 8);
                bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
            }
            if i % 4 == 0 {
                bytes.truncate(rng.below(bytes.len() as u64) as usize);
            }
            (format!("mutant {i} of seed {seed}"), bytes)
        });
        let (mut ok, mut err) = (0, 0);
        for (what, bytes) in truncations.chain(flips) {
            std::fs::write(&p, &bytes).expect("write");
            match std::panic::catch_unwind(|| parse(&p)) {
                Ok(Ok(_)) => ok += 1,
                Ok(Err(_)) => err += 1,
                Err(_) => panic!("{name}: {what} ({} bytes) panicked the parser", bytes.len()),
            }
        }
        std::fs::remove_file(&p).ok();
        (ok, err)
    }

    /// Mutants per file after its truncations.
    const MUTANTS: usize = 512;

    /// The binary parser never panics on a damaged file. In particular no
    /// truncated record reaches the three fixed-width `expect`s of
    /// `read_binary`: a short payload is refused by the length check
    /// before any record is decoded.
    #[test]
    fn damaged_binary_files_are_errors_not_panics() {
        let weighted = builder::gnm(30, 40, true, 1);
        let wide = InputGraph::new(
            1 << 33,
            vec![
                Edge::new(0, (1 << 33) - 1),
                Edge::new(1 << 32, 5),
                Edge::new(7, 7),
            ],
            false,
        );
        let graphs = [RmatConfig::paper(4).generate(), weighted, wide];
        for (i, g) in graphs.iter().enumerate() {
            let p = tmp(&format!("fuzz-src-{i}"));
            write_binary(g, &p).expect("write");
            let base = std::fs::read(&p).expect("read back");
            std::fs::remove_file(&p).ok();
            let (ok, err) = mutate(&format!("fuzz-bin-{i}"), &base, i as u64, read_binary);
            // The whole file parses; every shorter prefix is refused.
            assert!(
                ok >= 1 && err >= base.len(),
                "binary file {i}: {ok} ok, {err} err"
            );
        }
    }

    /// The text parser never panics on a damaged file, invalid UTF-8
    /// included.
    #[test]
    fn damaged_text_files_are_errors_not_panics() {
        let mut text = String::from("# a comment\n\n");
        let g = builder::gnm(20, 30, true, 2);
        for e in &g.edges {
            text.push_str(&format!("{} {} {}\n", e.src, e.dst, e.weight));
        }
        text.push_str("3 4\n18446744073709551614 0\n");
        let (ok, err) = mutate("fuzz-txt", text.as_bytes(), 9, read_text);
        assert!(ok > 0 && err > 0, "text: {ok} ok, {err} err");
    }

    #[test]
    fn max_vertex_id_is_an_error_not_an_empty_graph() {
        let p = tmp("maxid");
        std::fs::write(&p, "0 1\n18446744073709551615 0\n").expect("write");
        let err = read_text(&p).expect_err("no vertex count past u64::MAX");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().starts_with("line 2:"), "{err}");
        std::fs::write(&p, "18446744073709551614 0\n").expect("write");
        assert_eq!(read_text(&p).expect("largest id").num_vertices, u64::MAX);
        std::fs::remove_file(&p).ok();
    }
}
