//! Plain-text graph I/O.
//!
//! The format is the common whitespace edge-list dialect (compatible with
//! SNAP exports and DIMACS-like files):
//!
//! ```text
//! # comment lines start with '#' (or '%' or 'c')
//! p 5 4        # optional header: node count, edge count
//! 0 1
//! 1 2
//! 2 3
//! 3 4
//! ```
//!
//! Without a header the node count is `max id + 1`. Duplicate edges and
//! both orientations are merged; self loops are rejected.

use crate::graph::{Graph, NodeId};
use crate::GraphBuilder;
use std::fmt;
use std::io::{BufRead, Write};

/// A parse failure with its line number.
#[derive(Debug)]
pub enum ReadError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed content.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "i/o error: {e}"),
            ReadError::Parse { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for ReadError {}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Reads an edge list from any [`BufRead`].
///
/// # Errors
///
/// [`ReadError::Parse`] on malformed lines, self loops, ids exceeding
/// a declared header count, or a node count over 2³² (node ids must fit
/// 32 bits) or too large to allocate;
/// [`ReadError::Io`] on read failures.
pub fn read_edge_list<R: BufRead>(reader: R) -> Result<Graph, ReadError> {
    // The declared count and the largest endpoint, each with the line
    // that set it, so whole-file checks can name the offending line.
    let mut declared_n: Option<(usize, usize)> = None;
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    let (mut max_id, mut max_line) = (0usize, 0usize);
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = idx + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with(['#', '%']) || trimmed.starts_with("c ") {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let first = parts.next().unwrap();
        if first == "p" {
            let n: usize = parts
                .next()
                .ok_or_else(|| parse_err(lineno, "header missing node count"))?
                .parse()
                .map_err(|_| parse_err(lineno, "bad node count"))?;
            declared_n = Some((n, lineno));
            continue;
        }
        let u: usize = first
            .parse()
            .map_err(|_| parse_err(lineno, &format!("bad node id {first:?}")))?;
        let v_str = parts
            .next()
            .ok_or_else(|| parse_err(lineno, "edge line needs two endpoints"))?;
        let v: usize = v_str
            .parse()
            .map_err(|_| parse_err(lineno, &format!("bad node id {v_str:?}")))?;
        if u == v {
            return Err(parse_err(lineno, &format!("self loop on node {u}")));
        }
        if u.max(v) > max_id {
            (max_id, max_line) = (u.max(v), lineno);
        }
        edges.push((u, v));
    }
    let (n, line) = match declared_n {
        Some((n, header_line)) => {
            if !edges.is_empty() && max_id >= n {
                return Err(parse_err(
                    max_line,
                    &format!("edge endpoint {max_id} exceeds declared node count {n}"),
                ));
            }
            (n, header_line)
        }
        None if edges.is_empty() => (0, 0),
        None => (
            max_id
                .checked_add(1)
                .ok_or_else(|| parse_err(max_line, &format!("node id {max_id} is too large")))?,
            max_line,
        ),
    };
    GraphBuilder::check_node_count(n).map_err(|m| parse_err(line, &m))?;
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    for (u, v) in edges {
        b.add_edge(u, v);
    }
    Ok(b.build())
}

fn parse_err(line: usize, message: &str) -> ReadError {
    ReadError::Parse {
        line,
        message: message.to_string(),
    }
}

/// Parses an edge list from a string.
///
/// # Errors
///
/// Same as [`read_edge_list`].
pub fn parse_edge_list(text: &str) -> Result<Graph, ReadError> {
    read_edge_list(std::io::Cursor::new(text))
}

/// Reads a graph from a file path.
///
/// # Errors
///
/// Same as [`read_edge_list`].
pub fn read_file<P: AsRef<std::path::Path>>(path: P) -> Result<Graph, ReadError> {
    let f = std::fs::File::open(path)?;
    read_edge_list(std::io::BufReader::new(f))
}

/// Writes a graph as an edge list with a `p` header.
///
/// # Errors
///
/// Propagates write failures.
pub fn write_edge_list<W: Write>(g: &Graph, mut writer: W) -> std::io::Result<()> {
    writeln!(writer, "p {} {}", g.n(), g.m())?;
    for (u, v) in g.edges() {
        writeln!(writer, "{u} {v}")?;
    }
    Ok(())
}

/// Writes a graph to a file path.
///
/// # Errors
///
/// Propagates write failures.
pub fn write_file<P: AsRef<std::path::Path>>(g: &Graph, path: P) -> std::io::Result<()> {
    let f = std::fs::File::create(path)?;
    write_edge_list(g, std::io::BufWriter::new(f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use rand::SeedableRng;

    #[test]
    fn parse_basic() {
        let g = parse_edge_list("# demo\n0 1\n1 2\n").unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn parse_with_header_and_isolated_nodes() {
        let g = parse_edge_list("p 6 2\n0 1\n4 5\n").unwrap();
        assert_eq!(g.n(), 6);
        assert_eq!(g.m(), 2);
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let g = parse_edge_list("% matrix-market style\nc dimacs style\n\n0 2\n").unwrap();
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn duplicate_edges_merged() {
        let g = parse_edge_list("0 1\n1 0\n0 1\n").unwrap();
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn errors_reported_with_lines() {
        let e = parse_edge_list("0 1\nx y\n").unwrap_err();
        assert!(e.to_string().contains("line 2"));
        let e = parse_edge_list("3 3\n").unwrap_err();
        assert!(e.to_string().contains("self loop"));
        let e = parse_edge_list("0\n").unwrap_err();
        assert!(e.to_string().contains("two endpoints"));
        let e = parse_edge_list("p 2 1\n0 5\n").unwrap_err();
        assert!(e.to_string().contains("exceeds"));
        // Node counts past usize, past 32-bit ids or past any allocation
        // are errors, not overflow panics or allocation aborts.
        let e = parse_edge_list("0 18446744073709551615\n").unwrap_err();
        assert!(e.to_string().contains("too large"), "{e}");
        for text in [
            "p 18446744073709551615\n",
            "0 4294967296\n",
            "p 4294967297\n",
        ] {
            let e = parse_edge_list(text).unwrap_err();
            assert!(e.to_string().contains("must fit 32 bits"), "{text:?}: {e}");
        }
        let e = parse_edge_list("0 4000000000\n").unwrap_err();
        assert!(e.to_string().contains("available memory"), "{e}");
    }

    /// Whole-file checks name the line that set the offending count.
    #[test]
    fn whole_file_errors_name_the_offending_line() {
        let e = parse_edge_list("p 4 2\n0 1\n# note\n2 9\n1 3\n").unwrap_err();
        assert!(matches!(e, ReadError::Parse { line: 4, .. }), "{e}");
        assert!(
            e.to_string().contains("exceeds declared node count 4"),
            "{e}"
        );
        let e = parse_edge_list("0 1\n\n0 18446744073709551615\n1 2\n").unwrap_err();
        assert!(matches!(e, ReadError::Parse { line: 3, .. }), "{e}");
        assert!(e.to_string().contains("too large"), "{e}");
        for (text, line, message) in [
            ("0 1\n0 4000000000\n5 6\n", 2, "available memory"),
            ("0 1\np 18446744073709551615\n", 2, "must fit 32 bits"),
        ] {
            let e = parse_edge_list(text).unwrap_err();
            assert!(
                matches!(e, ReadError::Parse { line: l, .. } if l == line),
                "{text:?}: {e}"
            );
            assert!(e.to_string().contains(message), "{text:?}: {e}");
        }
    }

    #[test]
    fn empty_input() {
        let g = parse_edge_list("").unwrap();
        assert_eq!(g.n(), 0);
        let g = parse_edge_list("p 4 0\n").unwrap();
        assert_eq!(g.n(), 4);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let g = gen::forest_union(120, 2, &mut rng);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn file_roundtrip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let g = gen::apollonian(80, &mut rng);
        let path = std::env::temp_dir().join("arbmis_io_test.txt");
        write_file(&g, &path).unwrap();
        let back = read_file(&path).unwrap();
        assert_eq!(g, back);
        let _ = std::fs::remove_file(path);
    }
}
