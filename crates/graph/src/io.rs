//! Edge-list I/O: the plain-text CSV/TSV format the paper's raw inputs use.

use crate::builder::GraphBuilder;
use crate::edge::Edge;
use crate::ids::VertexId;
use crate::{Graph, GraphError};
use std::io::{BufRead, BufReader, Read, Write};

/// Write a graph as a text edge list (`src<sep>dst[<sep>weight]\n`).
pub fn write_edge_list<W: Write>(graph: &Graph, mut w: W, sep: char) -> Result<(), GraphError> {
    for e in graph.edges().iter() {
        if graph.is_weighted() {
            writeln!(w, "{}{}{}{}{}", e.src, sep, e.dst, sep, e.weight)?;
        } else {
            writeln!(w, "{}{}{}", e.src, sep, e.dst)?;
        }
    }
    Ok(())
}

/// Parse a text edge list. Lines starting with `#` or `%` are comments; fields may be
/// separated by commas, tabs, or runs of spaces. Vertex ids are used verbatim (they
/// must already be dense); the vertex count is `max id + 1` unless `num_vertices`
/// is given.
pub fn read_edge_list<R: Read>(r: R, num_vertices: Option<u64>) -> Result<Graph, GraphError> {
    let reader = BufReader::new(r);
    let mut builder = GraphBuilder::new();
    if let Some(n) = num_vertices {
        builder = builder.with_num_vertices(n);
    }
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let fields: Vec<&str> = line
            .split([',', '\t', ' '])
            .filter(|f| !f.is_empty())
            .collect();
        if fields.len() < 2 {
            return Err(GraphError::Parse {
                line: idx + 1,
                message: format!("expected at least 2 fields, got {}", fields.len()),
            });
        }
        let src: VertexId = fields[0].parse().map_err(|e| GraphError::Parse {
            line: idx + 1,
            message: format!("bad source id: {e}"),
        })?;
        let dst: VertexId = fields[1].parse().map_err(|e| GraphError::Parse {
            line: idx + 1,
            message: format!("bad target id: {e}"),
        })?;
        let edge = if fields.len() >= 3 {
            let w: f32 = fields[2].parse().map_err(|e| GraphError::Parse {
                line: idx + 1,
                message: format!("bad weight: {e}"),
            })?;
            Edge::weighted(src, dst, w)
        } else {
            Edge::new(src, dst)
        };
        builder.add_edge(edge);
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{GraphGenerator, RmatGenerator};

    #[test]
    fn text_roundtrip_unweighted() {
        let g = RmatGenerator::new(6, 4).generate(3);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf, ',').unwrap();
        let g2 = read_edge_list(&buf[..], Some(g.num_vertices())).unwrap();
        assert_eq!(g.num_edges(), g2.num_edges());
        assert_eq!(g.in_degrees(), g2.in_degrees());
    }

    #[test]
    fn text_parses_comments_and_mixed_separators() {
        let text = "# a comment\n0 1\n1,2\n2\t3\n\n% another\n";
        let g = read_edge_list(text.as_bytes(), None).unwrap();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_vertices(), 4);
    }

    #[test]
    fn text_parses_weights() {
        let text = "0,1,2.5\n1,2,0.5\n";
        let g = read_edge_list(text.as_bytes(), None).unwrap();
        assert!(g.is_weighted());
        assert_eq!(g.edges().get(0).weight, 2.5);
    }

    #[test]
    fn text_reports_parse_error_line() {
        let text = "0,1\nnot_an_edge\n";
        let err = read_edge_list(text.as_bytes(), None).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
    }
}
