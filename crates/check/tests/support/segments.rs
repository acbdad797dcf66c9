//! What a disk-backed run leaves in the segment directory the spill
//! engines pin next to a checkpoint path.

use std::path::Path;

/// Count of sealed segment files whose name starts with `prefix`
/// (`arena-` for the sequential engine's store, `wsarena-` for the
/// parallel engine's) in the segment directory of `snap_path`.
pub fn sealed_segments(snap_path: &Path, prefix: &str) -> usize {
    std::fs::read_dir(format!("{}.segs", snap_path.display()))
        .map(|dir| {
            dir.filter_map(|e| e.ok())
                .filter(|e| {
                    let name = e.file_name();
                    let name = name.to_string_lossy();
                    name.starts_with(prefix) && name.ends_with(".seg")
                })
                .count()
        })
        .unwrap_or(0)
}
