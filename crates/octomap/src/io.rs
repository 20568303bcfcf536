//! Compact binary serialisation of occupancy octrees.
//!
//! The format is a close cousin of OctoMap's `.ot` stream: a fixed header
//! (magic, version, grid and sensor-model parameters) followed by a
//! depth-first node stream where each node contributes its `f32` log-odds
//! and a `u8` child-presence bitmask.
//!
//! # Example
//!
//! ```
//! # use octocache_octomap::{OccupancyOcTree, OccupancyParams, io};
//! # use octocache_geom::{VoxelGrid, VoxelKey};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let grid = VoxelGrid::new(0.1, 16)?;
//! let mut tree = OccupancyOcTree::new(grid, OccupancyParams::default());
//! tree.update_node(VoxelKey::origin(16), true);
//! let bytes = io::write_tree(&tree);
//! let restored = io::read_tree(&bytes)?;
//! assert_eq!(restored.search(VoxelKey::origin(16)), tree.search(VoxelKey::origin(16)));
//! # Ok(())
//! # }
//! ```

use std::fmt;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use octocache_geom::VoxelGrid;

use crate::arena::ArenaTree;
use crate::checksum::crc32;
use crate::occupancy::OccupancyParams;
use crate::tree::{NodeRef, OccupancyOcTree};

const MAGIC: &[u8; 4] = b"OCT1";

/// Trailing magic identifying the checksummed v2 footer (shared by `.ot`
/// and `.bt` streams).
pub(crate) const FOOTER_MAGIC: &[u8; 4] = b"OCF2";

/// Footer size in bytes: payload CRC (4) + leaf checksum (8) + epoch (8) +
/// trailing magic (4).
pub(crate) const FOOTER_LEN: usize = 4 + 8 + 8 + 4;

/// Integrity metadata carried by a v2 map stream's footer.
///
/// v2 streams are the v1 payload followed by 24 footer bytes:
///
/// ```text
/// | v1 payload ... | payload_crc: u32 | leaf_checksum: u64 | epoch: u64 | "OCF2" |
/// ```
///
/// `payload_crc` is the CRC-32 (IEEE) of every byte before the footer;
/// `leaf_checksum` is [`OccupancyOcTree::leaf_checksum`] of the tree the
/// payload decodes to (for `.bt` streams: of the maximum-likelihood tree the
/// reader reconstructs); `epoch` is the number of scans integrated when the
/// stream was written (0 when unknown).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapFooter {
    /// CRC-32 of the payload bytes preceding the footer.
    pub payload_crc: u32,
    /// Leaf checksum of the decoded tree.
    pub leaf_checksum: u64,
    /// Scan epoch at write time.
    pub epoch: u64,
}

/// Errors produced when decoding a serialised tree.
#[derive(Debug, Clone, PartialEq)]
pub enum ReadError {
    /// The stream does not start with the expected magic bytes.
    BadMagic,
    /// The stream ended before the encoded tree was complete.
    Truncated,
    /// The header carried an invalid grid (resolution/depth).
    BadGrid(String),
    /// The stream encodes deeper nesting than the header's tree depth.
    DepthOverflow,
    /// Trailing bytes follow the encoded tree.
    TrailingBytes(usize),
    /// A node carried a NaN or infinite log-odds value.
    NotFinite,
    /// The stream ends with the v2 footer magic but is too short to hold a
    /// footer and a payload.
    BadFooter,
    /// The v2 footer's payload CRC does not match the payload bytes.
    ChecksumMismatch {
        /// CRC recorded in the footer.
        expected: u32,
        /// CRC computed over the payload.
        actual: u32,
    },
    /// The decoded tree's leaf checksum does not match the v2 footer.
    LeafChecksumMismatch {
        /// Leaf checksum recorded in the footer.
        expected: u64,
        /// Leaf checksum of the decoded tree.
        actual: u64,
    },
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::BadMagic => write!(f, "stream does not begin with octree magic"),
            ReadError::Truncated => write!(f, "stream ended before tree was complete"),
            ReadError::BadGrid(e) => write!(f, "invalid grid parameters: {e}"),
            ReadError::DepthOverflow => {
                write!(f, "node nesting exceeds the header tree depth")
            }
            ReadError::TrailingBytes(n) => write!(f, "{n} trailing bytes after tree"),
            ReadError::NotFinite => write!(f, "non-finite log-odds value in node stream"),
            ReadError::BadFooter => write!(f, "v2 footer magic on a stream too short for one"),
            ReadError::ChecksumMismatch { expected, actual } => write!(
                f,
                "payload CRC mismatch: footer {expected:#010x}, computed {actual:#010x}"
            ),
            ReadError::LeafChecksumMismatch { expected, actual } => write!(
                f,
                "leaf checksum mismatch: footer {expected:#018x}, decoded {actual:#018x}"
            ),
        }
    }
}

impl std::error::Error for ReadError {}

/// Appends the v2 footer to a finished payload buffer.
pub(crate) fn append_footer(buf: &mut BytesMut, leaf_checksum: u64, epoch: u64) {
    let crc = crc32(&buf[..]);
    buf.put_u32(crc);
    buf.put_u64(leaf_checksum);
    buf.put_u64(epoch);
    buf.put_slice(FOOTER_MAGIC);
}

/// Splits `bytes` into `(payload, footer)`, verifying the payload CRC when a
/// v2 footer is present. v1 streams (no trailing footer magic) pass through
/// untouched with `None`.
pub(crate) fn split_footer(bytes: &[u8]) -> Result<(&[u8], Option<MapFooter>), ReadError> {
    if bytes.len() < 4 || &bytes[bytes.len() - 4..] != FOOTER_MAGIC {
        return Ok((bytes, None));
    }
    if bytes.len() < FOOTER_LEN {
        return Err(ReadError::BadFooter);
    }
    let (payload, mut footer) = bytes.split_at(bytes.len() - FOOTER_LEN);
    let meta = MapFooter {
        payload_crc: footer.get_u32(),
        leaf_checksum: footer.get_u64(),
        epoch: footer.get_u64(),
    };
    let actual = crc32(payload);
    if actual != meta.payload_crc {
        return Err(ReadError::ChecksumMismatch {
            expected: meta.payload_crc,
            actual,
        });
    }
    Ok((payload, Some(meta)))
}

/// Inspects a stream's v2 footer without decoding the tree.
///
/// Returns `Ok(None)` for v1 streams. When a footer is present its payload
/// CRC is verified, so `Ok(Some(..))` implies the payload bytes are intact.
///
/// # Errors
///
/// [`ReadError::BadFooter`] or [`ReadError::ChecksumMismatch`] for damaged
/// v2 streams.
pub fn peek_footer(bytes: &[u8]) -> Result<Option<MapFooter>, ReadError> {
    split_footer(bytes).map(|(_, meta)| meta)
}

/// Serialises a tree to bytes (legacy v1 stream, no footer).
pub fn write_tree(tree: &OccupancyOcTree) -> Bytes {
    write_payload(tree).freeze()
}

/// Serialises a tree to a checksummed v2 stream: the v1 payload followed by
/// a [`MapFooter`] carrying the payload CRC, the tree's
/// [leaf checksum](OccupancyOcTree::leaf_checksum) and `epoch` (the number
/// of scans integrated — pass 0 when not tracked).
///
/// [`read_tree`] accepts both v1 and v2 streams, so v2 is a safe default
/// for new files; the footer is what checkpoint recovery uses to reject
/// torn or bit-rotted files.
pub fn write_tree_v2(tree: &OccupancyOcTree, epoch: u64) -> Bytes {
    let mut buf = write_payload(tree);
    append_footer(&mut buf, tree.leaf_checksum(), epoch);
    buf.freeze()
}

fn write_payload(tree: &OccupancyOcTree) -> BytesMut {
    let mut buf = BytesMut::with_capacity(64 + tree.num_nodes() * 5);
    buf.put_slice(MAGIC);
    buf.put_f64(tree.grid().resolution());
    buf.put_u8(tree.grid().depth());
    let p = tree.params();
    buf.put_f32(p.delta_occupied);
    buf.put_f32(p.delta_free);
    buf.put_f32(p.clamp_min);
    buf.put_f32(p.clamp_max);
    buf.put_f32(p.threshold);
    match tree.root_ref() {
        Some(root) => {
            buf.put_u8(1);
            write_node(root, &mut buf);
        }
        None => buf.put_u8(0),
    }
    buf
}

fn write_node(node: NodeRef<'_>, buf: &mut BytesMut) {
    buf.put_f32(node.log_odds());
    buf.put_u8(node.child_mask());
    for (_, child) in node.children() {
        write_node(child, buf);
    }
}

/// Deserialises a tree from bytes produced by [`write_tree`] or
/// [`write_tree_v2`]. When a v2 footer is present, both the payload CRC and
/// the decoded leaf checksum are verified.
///
/// # Errors
///
/// Returns a [`ReadError`] on malformed input; never panics on untrusted
/// bytes.
pub fn read_tree(bytes: &[u8]) -> Result<OccupancyOcTree, ReadError> {
    read_tree_with_meta(bytes).map(|(tree, _)| tree)
}

/// As [`read_tree`], additionally returning the v2 footer when the stream
/// carries one (`None` for legacy v1 streams).
///
/// # Errors
///
/// Returns a [`ReadError`] on malformed input, including
/// [`ReadError::ChecksumMismatch`] / [`ReadError::LeafChecksumMismatch`]
/// when a v2 stream fails its integrity checks.
pub fn read_tree_with_meta(
    bytes: &[u8],
) -> Result<(OccupancyOcTree, Option<MapFooter>), ReadError> {
    let (payload, meta) = split_footer(bytes)?;
    let tree = read_payload(payload)?;
    verify_leaf_checksum(&tree, meta.as_ref())?;
    Ok((tree, meta))
}

/// Checks a decoded tree against its v2 footer's leaf checksum (v1 streams,
/// which carry no footer, pass).
pub(crate) fn verify_leaf_checksum(
    tree: &OccupancyOcTree,
    meta: Option<&MapFooter>,
) -> Result<(), ReadError> {
    if let Some(meta) = meta {
        let actual = tree.leaf_checksum();
        if actual != meta.leaf_checksum {
            return Err(ReadError::LeafChecksumMismatch {
                expected: meta.leaf_checksum,
                actual,
            });
        }
    }
    Ok(())
}

fn read_payload(bytes: &[u8]) -> Result<OccupancyOcTree, ReadError> {
    let mut buf = bytes;
    if buf.remaining() < 4 || &buf[..4] != MAGIC {
        return Err(ReadError::BadMagic);
    }
    buf.advance(4);
    if buf.remaining() < 8 + 1 + 5 * 4 + 1 {
        return Err(ReadError::Truncated);
    }
    let resolution = buf.get_f64();
    let depth = buf.get_u8();
    let grid = VoxelGrid::new(resolution, depth).map_err(|e| ReadError::BadGrid(e.to_string()))?;
    let params = OccupancyParams {
        delta_occupied: buf.get_f32(),
        delta_free: buf.get_f32(),
        clamp_min: buf.get_f32(),
        clamp_max: buf.get_f32(),
        threshold: buf.get_f32(),
    };
    if params.validate().is_err() {
        return Err(ReadError::BadGrid("inconsistent occupancy params".into()));
    }
    let has_root = buf.get_u8() == 1;
    let nodes = if has_root {
        let mut nodes = ArenaTree::with_root(0.0);
        read_node(&mut buf, &mut nodes, 0, depth)?;
        nodes
    } else {
        ArenaTree::new()
    };
    if buf.has_remaining() {
        return Err(ReadError::TrailingBytes(buf.remaining()));
    }
    Ok(OccupancyOcTree::from_arena(grid, params, nodes))
}

/// Decodes one node of the depth-first stream into pool slot `idx`, then
/// its children into a freshly allocated block. Recursion is bounded by the
/// header depth (at most 16 levels).
fn read_node(
    buf: &mut &[u8],
    nodes: &mut ArenaTree,
    idx: u32,
    levels_left: u8,
) -> Result<(), ReadError> {
    if buf.remaining() < 5 {
        return Err(ReadError::Truncated);
    }
    let log_odds = buf.get_f32();
    if !log_odds.is_finite() {
        return Err(ReadError::NotFinite);
    }
    nodes.set_log_odds(idx, log_odds);
    let mask = buf.get_u8();
    if mask != 0 {
        if levels_left == 0 {
            return Err(ReadError::DepthOverflow);
        }
        let block = nodes.add_children(idx, mask, 0.0);
        for i in 0..8u32 {
            if mask & (1 << i) != 0 {
                read_node(buf, nodes, block + i, levels_left - 1)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use octocache_geom::{Point3, VoxelKey};

    fn sample_tree() -> OccupancyOcTree {
        let grid = VoxelGrid::new(0.25, 8).unwrap();
        let mut tree = OccupancyOcTree::new(grid, OccupancyParams::default());
        let cloud: Vec<Point3> = (0..50)
            .map(|i| {
                let a = i as f64 * 0.13;
                Point3::new(5.0 + a.sin(), a.cos() * 3.0, (i % 7) as f64 * 0.2)
            })
            .collect();
        crate::insert::insert_point_cloud(&mut tree, Point3::ZERO, &cloud, 30.0).unwrap();
        tree
    }

    #[test]
    fn roundtrip_preserves_structure_and_values() {
        let tree = sample_tree();
        let bytes = write_tree(&tree);
        let restored = read_tree(&bytes).unwrap();
        assert_eq!(restored.num_nodes(), tree.num_nodes());
        assert_eq!(restored.num_leaves(), tree.num_leaves());
        assert_eq!(restored.grid().resolution(), tree.grid().resolution());
        // Compare every leaf.
        let mut a: Vec<_> = tree.leaves().map(|l| (l.key, l.level)).collect();
        let mut b: Vec<_> = restored.leaves().map(|l| (l.key, l.level)).collect();
        a.sort_by_key(|x| (x.0, x.1));
        b.sort_by_key(|x| (x.0, x.1));
        assert_eq!(a, b);
    }

    #[test]
    fn empty_tree_roundtrips() {
        let grid = VoxelGrid::new(0.1, 16).unwrap();
        let tree = OccupancyOcTree::new(grid, OccupancyParams::default());
        let bytes = write_tree(&tree);
        let restored = read_tree(&bytes).unwrap();
        assert!(restored.is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(matches!(read_tree(b"NOPE"), Err(ReadError::BadMagic)));
        assert!(matches!(read_tree(b""), Err(ReadError::BadMagic)));
    }

    #[test]
    fn truncated_stream_rejected() {
        let tree = sample_tree();
        let bytes = write_tree(&tree);
        for cut in [5, 10, 20, bytes.len() - 1] {
            let err = read_tree(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, ReadError::Truncated | ReadError::BadMagic),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let tree = sample_tree();
        let mut bytes = write_tree(&tree).to_vec();
        bytes.push(0xFF);
        assert!(matches!(
            read_tree(&bytes),
            Err(ReadError::TrailingBytes(1))
        ));
    }

    #[test]
    fn bad_grid_rejected() {
        let grid = VoxelGrid::new(0.25, 8).unwrap();
        let tree = OccupancyOcTree::new(grid, OccupancyParams::default());
        let mut bytes = write_tree(&tree).to_vec();
        // Corrupt the depth byte (offset 4 magic + 8 resolution).
        bytes[12] = 200;
        assert!(matches!(read_tree(&bytes), Err(ReadError::BadGrid(_))));
    }

    #[test]
    fn queries_agree_after_roundtrip() {
        let tree = sample_tree();
        let restored = read_tree(&write_tree(&tree)).unwrap();
        for x in (0..256).step_by(17) {
            for y in (0..256).step_by(23) {
                let key = VoxelKey::new(x as u16, y as u16, 128);
                assert_eq!(tree.search(key), restored.search(key));
            }
        }
    }

    #[test]
    fn corrupted_node_stream_never_panics() {
        // Flip every byte of a valid stream one at a time: decoding must
        // return Ok or Err but never panic (and Ok only for benign flips
        // like log-odds bits).
        let tree = sample_tree();
        let bytes = write_tree(&tree).to_vec();
        for i in 0..bytes.len().min(400) {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0xA5;
            let _ = read_tree(&corrupted);
        }
    }

    #[test]
    fn display_of_errors() {
        for e in [
            ReadError::BadMagic,
            ReadError::Truncated,
            ReadError::BadGrid("x".into()),
            ReadError::DepthOverflow,
            ReadError::TrailingBytes(3),
            ReadError::NotFinite,
            ReadError::BadFooter,
            ReadError::ChecksumMismatch {
                expected: 1,
                actual: 2,
            },
            ReadError::LeafChecksumMismatch {
                expected: 1,
                actual: 2,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn v2_roundtrip_and_footer() {
        let tree = sample_tree();
        let bytes = write_tree_v2(&tree, 42);
        let meta = peek_footer(&bytes).unwrap().expect("footer present");
        assert_eq!(meta.epoch, 42);
        assert_eq!(meta.leaf_checksum, tree.leaf_checksum());
        let (restored, meta2) = read_tree_with_meta(&bytes).unwrap();
        assert_eq!(meta2, Some(meta));
        assert_eq!(restored.leaf_checksum(), tree.leaf_checksum());
    }

    #[test]
    fn v1_stream_has_no_footer_and_still_reads() {
        let tree = sample_tree();
        let bytes = write_tree(&tree);
        assert_eq!(peek_footer(&bytes).unwrap(), None);
        let (restored, meta) = read_tree_with_meta(&bytes).unwrap();
        assert!(meta.is_none());
        assert_eq!(restored.leaf_checksum(), tree.leaf_checksum());
    }

    #[test]
    fn v2_payload_corruption_is_caught_by_crc() {
        let tree = sample_tree();
        let bytes = write_tree_v2(&tree, 7).to_vec();
        // Flip one payload bit: the CRC must catch it before decoding.
        let mut corrupted = bytes.clone();
        corrupted[40] ^= 0x01;
        assert!(matches!(
            read_tree(&corrupted),
            Err(ReadError::ChecksumMismatch { .. })
        ));
        // Flip a footer byte (not the magic): CRC or leaf-checksum mismatch.
        let mut corrupted = bytes.clone();
        let crc_off = bytes.len() - FOOTER_LEN;
        corrupted[crc_off] ^= 0xFF;
        assert!(read_tree(&corrupted).is_err());
    }

    #[test]
    fn footer_magic_on_tiny_stream_is_bad_footer() {
        let mut bytes = b"OCF2".to_vec();
        assert!(matches!(read_tree(&bytes), Err(ReadError::BadFooter)));
        bytes.splice(0..0, [0u8; 10]);
        assert!(matches!(read_tree(&bytes), Err(ReadError::BadFooter)));
    }

    #[test]
    fn nan_log_odds_rejected() {
        let tree = sample_tree();
        let mut bytes = write_tree(&tree).to_vec();
        // First node's log-odds sits right after the 34-byte header.
        bytes[34..38].copy_from_slice(&f32::NAN.to_bits().to_be_bytes());
        assert!(matches!(read_tree(&bytes), Err(ReadError::NotFinite)));
    }
}
