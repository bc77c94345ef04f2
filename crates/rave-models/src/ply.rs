//! PLY (Polygon File Format) writer/parser: ASCII and binary little-endian.
//!
//! The paper's models came from archives as PLY; Table 1's "Size of Data
//! File" column corresponds to binary PLY with per-vertex normals, which
//! is what [`binary_file_size`] measures.

use rave_math::Vec3;
use rave_scene::MeshData;
#[allow(unused_imports)]
use std::io::Read;
use std::io::{BufRead, Write};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlyFormat {
    Ascii,
    BinaryLittleEndian,
}

fn write_header<W: Write>(mesh: &MeshData, format: PlyFormat, w: &mut W) -> std::io::Result<()> {
    let fmt = match format {
        PlyFormat::Ascii => "ascii",
        PlyFormat::BinaryLittleEndian => "binary_little_endian",
    };
    writeln!(w, "ply")?;
    writeln!(w, "format {fmt} 1.0")?;
    writeln!(w, "comment produced by rave-models")?;
    writeln!(w, "element vertex {}", mesh.positions.len())?;
    writeln!(w, "property float x")?;
    writeln!(w, "property float y")?;
    writeln!(w, "property float z")?;
    if !mesh.normals.is_empty() {
        writeln!(w, "property float nx")?;
        writeln!(w, "property float ny")?;
        writeln!(w, "property float nz")?;
    }
    writeln!(w, "element face {}", mesh.triangles.len())?;
    writeln!(w, "property list uchar int vertex_indices")?;
    writeln!(w, "end_header")?;
    Ok(())
}

/// Write a mesh as PLY in the requested format.
pub fn write<W: Write>(mesh: &MeshData, format: PlyFormat, mut w: W) -> std::io::Result<()> {
    write_header(mesh, format, &mut w)?;
    let has_n = !mesh.normals.is_empty();
    match format {
        PlyFormat::Ascii => {
            use std::fmt::Write as _;
            let mut buf = String::new();
            for (i, p) in mesh.positions.iter().enumerate() {
                buf.clear();
                let _ = write!(buf, "{} {} {}", p.x, p.y, p.z);
                if has_n {
                    let n = mesh.normals[i];
                    let _ = write!(buf, " {} {} {}", n.x, n.y, n.z);
                }
                buf.push('\n');
                w.write_all(buf.as_bytes())?;
            }
            for t in &mesh.triangles {
                buf.clear();
                let _ = writeln!(buf, "3 {} {} {}", t[0], t[1], t[2]);
                w.write_all(buf.as_bytes())?;
            }
        }
        PlyFormat::BinaryLittleEndian => {
            let mut buf = Vec::with_capacity(24);
            for (i, p) in mesh.positions.iter().enumerate() {
                buf.clear();
                for v in [p.x, p.y, p.z] {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
                if has_n {
                    let n = mesh.normals[i];
                    for v in [n.x, n.y, n.z] {
                        buf.extend_from_slice(&v.to_le_bytes());
                    }
                }
                w.write_all(&buf)?;
            }
            for t in &mesh.triangles {
                buf.clear();
                buf.push(3u8);
                for &i in t {
                    buf.extend_from_slice(&(i as i32).to_le_bytes());
                }
                w.write_all(&buf)?;
            }
        }
    }
    Ok(())
}

/// Parse a PLY stream (either format produced by [`write()`]; tolerates
/// extra float vertex properties by skipping them).
pub fn read<R: BufRead>(mut r: R) -> std::io::Result<MeshData> {
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());

    // --- header ---
    let mut line = String::new();
    r.read_line(&mut line)?;
    if line.trim() != "ply" {
        return Err(bad("missing ply magic"));
    }
    let mut format = None;
    let mut vertex_count = 0usize;
    let mut face_count = 0usize;
    let mut vertex_props: Vec<String> = Vec::new();
    let mut in_vertex_element = false;
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(bad("unterminated header"));
        }
        let l = line.trim();
        if l == "end_header" {
            break;
        }
        let mut parts = l.split_whitespace();
        match parts.next() {
            Some("format") => {
                format = match parts.next() {
                    Some("ascii") => Some(PlyFormat::Ascii),
                    Some("binary_little_endian") => Some(PlyFormat::BinaryLittleEndian),
                    other => {
                        return Err(bad(&format!("unsupported format {other:?}")));
                    }
                };
            }
            Some("element") => match (parts.next(), parts.next()) {
                (Some("vertex"), Some(n)) => {
                    vertex_count = n.parse().map_err(|_| bad("bad vertex count"))?;
                    in_vertex_element = true;
                }
                (Some("face"), Some(n)) => {
                    face_count = n.parse().map_err(|_| bad("bad face count"))?;
                    in_vertex_element = false;
                }
                _ => return Err(bad("bad element line")),
            },
            Some("property") => {
                if in_vertex_element {
                    let ty = parts.next().unwrap_or("");
                    if ty != "float" {
                        return Err(bad("only float vertex properties supported"));
                    }
                    vertex_props.push(parts.next().unwrap_or("").to_string());
                }
            }
            Some("comment") | Some("obj_info") => {}
            _ => return Err(bad("unrecognized header line")),
        }
    }
    let format = format.ok_or_else(|| bad("no format line"))?;
    let idx_of = |name: &str| vertex_props.iter().position(|p| p == name);
    let (ix, iy, iz) = match (idx_of("x"), idx_of("y"), idx_of("z")) {
        (Some(a), Some(b), Some(c)) => (a, b, c),
        _ => return Err(bad("vertex element missing x/y/z")),
    };
    let normal_idx = match (idx_of("nx"), idx_of("ny"), idx_of("nz")) {
        (Some(a), Some(b), Some(c)) => Some((a, b, c)),
        _ => None,
    };

    // --- body ---
    let mut positions = Vec::with_capacity(vertex_count);
    let mut normals = Vec::with_capacity(if normal_idx.is_some() { vertex_count } else { 0 });
    let mut triangles = Vec::with_capacity(face_count);
    match format {
        PlyFormat::Ascii => {
            for _ in 0..vertex_count {
                line.clear();
                r.read_line(&mut line)?;
                let vals: Vec<f32> = line
                    .split_whitespace()
                    .map(|s| s.parse().map_err(|_| bad("bad vertex value")))
                    .collect::<Result<_, _>>()?;
                if vals.len() < vertex_props.len() {
                    return Err(bad("short vertex line"));
                }
                positions.push(Vec3::new(vals[ix], vals[iy], vals[iz]));
                if let Some((a, b, c)) = normal_idx {
                    normals.push(Vec3::new(vals[a], vals[b], vals[c]));
                }
            }
            for _ in 0..face_count {
                line.clear();
                r.read_line(&mut line)?;
                let vals: Vec<i64> = line
                    .split_whitespace()
                    .map(|s| s.parse().map_err(|_| bad("bad face value")))
                    .collect::<Result<_, _>>()?;
                let Some((&n, rest)) = vals.split_first() else {
                    return Err(bad("empty face line"));
                };
                if n < 3 || rest.len() != n as usize {
                    return Err(bad("face arity mismatch"));
                }
                for k in 1..rest.len() - 1 {
                    triangles.push([rest[0] as u32, rest[k] as u32, rest[k + 1] as u32]);
                }
            }
        }
        PlyFormat::BinaryLittleEndian => {
            let stride = vertex_props.len();
            let mut vbuf = vec![0u8; 4 * stride];
            for _ in 0..vertex_count {
                r.read_exact(&mut vbuf)?;
                let at = |i: usize| {
                    f32::from_le_bytes([
                        vbuf[4 * i],
                        vbuf[4 * i + 1],
                        vbuf[4 * i + 2],
                        vbuf[4 * i + 3],
                    ])
                };
                positions.push(Vec3::new(at(ix), at(iy), at(iz)));
                if let Some((a, b, c)) = normal_idx {
                    normals.push(Vec3::new(at(a), at(b), at(c)));
                }
            }
            for _ in 0..face_count {
                let mut nb = [0u8; 1];
                r.read_exact(&mut nb)?;
                let n = nb[0] as usize;
                if n < 3 {
                    return Err(bad("face with <3 vertices"));
                }
                let mut ibuf = vec![0u8; 4 * n];
                r.read_exact(&mut ibuf)?;
                let idx = |k: usize| {
                    i32::from_le_bytes([
                        ibuf[4 * k],
                        ibuf[4 * k + 1],
                        ibuf[4 * k + 2],
                        ibuf[4 * k + 3],
                    ]) as u32
                };
                for k in 1..n - 1 {
                    triangles.push([idx(0), idx(k), idx(k + 1)]);
                }
            }
        }
    }
    let mut mesh = MeshData::new(positions, triangles);
    mesh.normals = normals;
    mesh.validate().map_err(|e| bad(&format!("invalid mesh: {e}")))?;
    Ok(mesh)
}

/// Byte size of the binary-little-endian encoding (Table 1's file-size
/// column) without materializing it: header + vertices + faces.
pub fn binary_file_size(mesh: &MeshData) -> u64 {
    let mut header = Vec::new();
    write_header(mesh, PlyFormat::BinaryLittleEndian, &mut header).expect("vec write cannot fail");
    let vstride = if mesh.normals.is_empty() { 12 } else { 24 };
    header.len() as u64 + mesh.positions.len() as u64 * vstride + mesh.triangles.len() as u64 * 13
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::sphere;

    #[test]
    fn ascii_roundtrip() {
        let m = sphere(Vec3::ZERO, 1.0, 100);
        let mut buf = Vec::new();
        write(&m, PlyFormat::Ascii, &mut buf).unwrap();
        let back = read(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(back.triangle_count(), m.triangle_count());
        assert_eq!(back.vertex_count(), m.vertex_count());
        assert_eq!(back.normals.len(), m.normals.len());
    }

    #[test]
    fn binary_roundtrip_bit_exact() {
        let m = sphere(Vec3::new(0.5, -1.0, 2.0), 1.5, 128);
        let mut buf = Vec::new();
        write(&m, PlyFormat::BinaryLittleEndian, &mut buf).unwrap();
        let back = read(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(back.positions, m.positions);
        assert_eq!(back.triangles, m.triangles);
        assert_eq!(back.normals, m.normals);
    }

    #[test]
    fn binary_file_size_matches_actual() {
        let m = sphere(Vec3::ZERO, 1.0, 64);
        let mut buf = Vec::new();
        write(&m, PlyFormat::BinaryLittleEndian, &mut buf).unwrap();
        assert_eq!(binary_file_size(&m), buf.len() as u64);
    }

    #[test]
    fn rejects_garbage() {
        assert!(read(std::io::Cursor::new(b"not a ply".to_vec())).is_err());
    }

    #[test]
    fn rejects_big_endian() {
        let text = "ply\nformat binary_big_endian 1.0\nend_header\n";
        assert!(read(std::io::Cursor::new(text.as_bytes().to_vec())).is_err());
    }

    #[test]
    fn ply_to_obj_conversion_pipeline() {
        // The paper's real ingest path: PLY -> OBJ -> import.
        let m = sphere(Vec3::ZERO, 1.0, 200);
        let mut ply_bytes = Vec::new();
        write(&m, PlyFormat::BinaryLittleEndian, &mut ply_bytes).unwrap();
        let from_ply = read(std::io::Cursor::new(ply_bytes)).unwrap();
        let mut obj_bytes = Vec::new();
        crate::obj::write(&from_ply, &mut obj_bytes).unwrap();
        let imported = crate::obj::read(std::io::Cursor::new(obj_bytes)).unwrap();
        assert_eq!(imported.triangle_count(), m.triangle_count());
    }

    #[test]
    fn quad_faces_fan_triangulated() {
        let text = "ply\nformat ascii 1.0\nelement vertex 4\nproperty float x\nproperty float y\nproperty float z\nelement face 1\nproperty list uchar int vertex_indices\nend_header\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n";
        let m = read(std::io::Cursor::new(text.as_bytes().to_vec())).unwrap();
        assert_eq!(m.triangle_count(), 2);
    }
}
