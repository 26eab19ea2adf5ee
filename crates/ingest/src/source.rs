//! Cube sources: pull-based streams of cube arrivals.
//!
//! A source yields a flat stream of [`SourceEvent`]s — `Begin` (a parsed
//! header plus a tag naming the arrival), `Chunk` (file-order payload
//! bytes) and `End` — which is exactly the shape a [`crate::StreamDecoder`]
//! consumes.  All shipped sources are deterministic: files are replayed in
//! sorted order and synthetic scenes are seeded, so every ingest run is
//! reproducible.

use crate::{IngestError, Result};
use hsi::io::{encode_cube, CubeFileHeader, Interleave, CUBE_FILE_EXTENSION, CUBE_FILE_HEADER_LEN};
use hsi::{SceneConfig, SceneGenerator};
use std::collections::BTreeSet;
use std::io::Read;
use std::path::{Path, PathBuf};

/// Default payload chunk size of the shipped sources (64 KiB).
const DEFAULT_CHUNK_BYTES: usize = 64 * 1024;

/// One event of a cube arrival stream.
#[derive(Debug)]
pub enum SourceEvent {
    /// A new cube begins.
    Begin {
        /// A stable name for the arrival (file name, synthetic label).
        tag: String,
        /// The parsed self-describing header.
        header: CubeFileHeader,
    },
    /// A chunk of file-order payload bytes for the current cube.
    Chunk(Vec<u8>),
    /// The current cube's stream is finished (possibly short — the decoder
    /// decides whether the payload was complete).
    End,
}

/// A pull-based stream of cube arrivals.
pub trait CubeSource {
    /// A stable name for reports and per-source counters.
    fn name(&self) -> &str;

    /// The next event, or `None` when the source is exhausted.  An `Err`
    /// poisons the current cube (the pump discards any partial decode and
    /// counts a decode error) but not the source: iteration continues with
    /// the next arrival.
    fn next_event(&mut self) -> Option<Result<SourceEvent>>;
}

/// Streams one opened cube file as header + byte chunks.
struct FileStream {
    tag: String,
    file: std::fs::File,
    remaining: usize,
    started: bool,
    done: bool,
}

impl FileStream {
    fn open(path: &Path) -> Result<Self> {
        let tag = Self::tag_for(path);
        let file = std::fs::File::open(path)?;
        Ok(Self {
            tag,
            file,
            remaining: 0,
            started: false,
            done: false,
        })
    }

    /// A stable display tag for an arrival, unique per file name.
    ///
    /// Valid UTF-8 names are used verbatim.  A lossy conversion would map
    /// every invalid byte to U+FFFD, so two distinct non-UTF-8 names could
    /// collide on the same tag (and downstream consumers keyed by tag would
    /// conflate the arrivals); a hash of the raw name keeps them apart.
    fn tag_for(path: &Path) -> String {
        use std::hash::{Hash, Hasher};
        let Some(name) = path.file_name() else {
            return path.display().to_string();
        };
        match name.to_str() {
            Some(utf8) => utf8.to_owned(),
            None => {
                let mut hasher = std::collections::hash_map::DefaultHasher::new();
                name.hash(&mut hasher);
                format!("{}#{:016x}", name.to_string_lossy(), hasher.finish())
            }
        }
    }

    fn next_event(&mut self, chunk_bytes: usize) -> Option<Result<SourceEvent>> {
        if self.done {
            return None;
        }
        if !self.started {
            self.started = true;
            let mut header_bytes = [0u8; CUBE_FILE_HEADER_LEN];
            if let Err(e) = self.file.read_exact(&mut header_bytes) {
                self.done = true;
                return Some(Err(IngestError::Malformed(format!(
                    "{}: header unreadable: {e}",
                    self.tag
                ))));
            }
            let header = match CubeFileHeader::parse(&header_bytes) {
                Ok(header) => header,
                Err(e) => {
                    self.done = true;
                    return Some(Err(IngestError::Hsi(e)));
                }
            };
            self.remaining = header.payload_bytes();
            return Some(Ok(SourceEvent::Begin {
                tag: self.tag.clone(),
                header,
            }));
        }
        if self.remaining == 0 {
            self.done = true;
            return Some(Ok(SourceEvent::End));
        }
        let want = self.remaining.min(chunk_bytes.max(1));
        let mut buf = vec![0u8; want];
        let read = match self.file.read(&mut buf) {
            Ok(read) => read,
            Err(e) => {
                self.done = true;
                return Some(Err(IngestError::Io(e)));
            }
        };
        if read == 0 {
            // Short file: end the stream and let the decoder report the
            // truncation.
            self.done = true;
            return Some(Ok(SourceEvent::End));
        }
        buf.truncate(read);
        self.remaining -= read;
        Some(Ok(SourceEvent::Chunk(buf)))
    }
}

/// Replays a folder of `.hsif` cube files as a deterministic arrival
/// schedule: files are streamed in sorted name order, and whenever the
/// known set is exhausted the directory is rescanned once more, so files
/// dropped in while the pump runs are picked up.  The source ends when a
/// rescan finds nothing new.
pub struct DirectorySource {
    name: String,
    dir: PathBuf,
    chunk_bytes: usize,
    seen: BTreeSet<PathBuf>,
    pending: Vec<PathBuf>,
    current: Option<FileStream>,
}

impl DirectorySource {
    /// Creates a source over `dir` with the default chunk size.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self::with_chunk_bytes(dir, DEFAULT_CHUNK_BYTES)
    }

    /// Creates a source over `dir` reading files in `chunk_bytes` chunks.
    pub fn with_chunk_bytes(dir: impl Into<PathBuf>, chunk_bytes: usize) -> Self {
        let dir = dir.into();
        Self {
            name: format!("dir:{}", dir.display()),
            dir,
            chunk_bytes,
            seen: BTreeSet::new(),
            pending: Vec::new(),
            current: None,
        }
    }

    /// Scans for unseen cube files, sorted so replay order is stable.
    fn rescan(&mut self) -> Result<()> {
        let mut fresh = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let is_cube = path
                .extension()
                .is_some_and(|ext| ext == CUBE_FILE_EXTENSION);
            if is_cube && !self.seen.contains(&path) {
                fresh.push(path);
            }
        }
        fresh.sort();
        for path in &fresh {
            self.seen.insert(path.clone());
        }
        // Newly discovered files are drained front to back.
        fresh.reverse();
        self.pending = fresh;
        Ok(())
    }
}

impl CubeSource for DirectorySource {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_event(&mut self) -> Option<Result<SourceEvent>> {
        loop {
            if let Some(stream) = self.current.as_mut() {
                match stream.next_event(self.chunk_bytes) {
                    Some(event) => return Some(event),
                    None => self.current = None,
                }
            }
            if let Some(path) = self.pending.pop() {
                match FileStream::open(&path) {
                    Ok(stream) => self.current = Some(stream),
                    Err(e) => return Some(Err(e)),
                }
                continue;
            }
            if let Err(e) = self.rescan() {
                return Some(Err(e));
            }
            if self.pending.is_empty() {
                return None;
            }
        }
    }
}

/// A deterministic seeded source: each arrival is a synthetic scene,
/// encoded into the interleaved wire format and then chunked exactly like
/// a file read — so tests and benches exercise the same decode path as
/// real files without touching disk.
pub struct SyntheticSource {
    name: String,
    chunk_bytes: usize,
    /// Remaining arrivals, drained front to back (stored reversed).
    arrivals: Vec<(String, SceneConfig, Interleave)>,
    current: Option<(Vec<u8>, usize)>,
}

impl SyntheticSource {
    /// Creates a source that replays `arrivals` (tag, scene, interleave)
    /// in order.
    pub fn new(
        name: impl Into<String>,
        arrivals: Vec<(String, SceneConfig, Interleave)>,
        chunk_bytes: usize,
    ) -> Self {
        let mut arrivals = arrivals;
        arrivals.reverse();
        Self {
            name: name.into(),
            chunk_bytes,
            arrivals,
            current: None,
        }
    }

    /// Encodes one scene into full wire bytes (header + payload) in memory
    /// with the format's one encoder, byte for byte what
    /// `hsi::io::write_cube_as` puts on disk — no filesystem involved, so
    /// concurrent sources cannot race.
    fn encode(config: &SceneConfig, interleave: Interleave) -> Result<Vec<u8>> {
        let cube = SceneGenerator::new(config.clone())?.generate();
        let mut bytes = Vec::with_capacity(CUBE_FILE_HEADER_LEN + cube.byte_size());
        encode_cube(&cube, interleave, &mut bytes)?;
        Ok(bytes)
    }
}

impl CubeSource for SyntheticSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_event(&mut self) -> Option<Result<SourceEvent>> {
        if let Some((bytes, pos)) = self.current.as_mut() {
            if *pos < bytes.len() {
                let end = (*pos + self.chunk_bytes.max(1)).min(bytes.len());
                let chunk = bytes[*pos..end].to_vec();
                *pos = end;
                return Some(Ok(SourceEvent::Chunk(chunk)));
            }
            self.current = None;
            return Some(Ok(SourceEvent::End));
        }
        let (tag, config, interleave) = self.arrivals.pop()?;
        let bytes = match Self::encode(&config, interleave) {
            Ok(bytes) => bytes,
            Err(e) => return Some(Err(e)),
        };
        let header = match CubeFileHeader::parse(&bytes) {
            Ok(header) => header,
            Err(e) => return Some(Err(IngestError::Hsi(e))),
        };
        self.current = Some((bytes, CUBE_FILE_HEADER_LEN));
        Some(Ok(SourceEvent::Begin { tag, header }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StreamDecoder;
    use hsi::io::write_cube_as;
    use hsi::{CubeDims, HyperCube};
    use std::sync::Arc;

    fn scene(seed: u64, side: usize, bands: usize) -> SceneConfig {
        let mut config = SceneConfig::small(seed);
        config.dims = CubeDims::new(side, side, bands);
        config
    }

    fn temp_dir(name: &str) -> PathBuf {
        let mut dir = std::env::temp_dir();
        dir.push(format!("ingest_src_{}_{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Drains a source through a decoder, returning (tag, cube) pairs and
    /// the number of errors.
    fn drain(source: &mut dyn CubeSource) -> (Vec<(String, Arc<HyperCube>)>, usize) {
        let mut cubes = Vec::new();
        let mut errors = 0;
        let mut current: Option<(String, StreamDecoder)> = None;
        while let Some(event) = source.next_event() {
            match event {
                Err(_) => {
                    errors += 1;
                    current = None;
                }
                Ok(SourceEvent::Begin { tag, header }) => {
                    current = Some((tag, StreamDecoder::new(header)));
                }
                Ok(SourceEvent::Chunk(bytes)) => {
                    if let Some((_, decoder)) = current.as_mut() {
                        if decoder.push(&bytes).is_err() {
                            errors += 1;
                            current = None;
                        }
                    }
                }
                Ok(SourceEvent::End) => {
                    if let Some((tag, decoder)) = current.take() {
                        match decoder.finish() {
                            Ok(cube) => cubes.push((tag, cube)),
                            Err(_) => errors += 1,
                        }
                    }
                }
            }
        }
        (cubes, errors)
    }

    #[test]
    fn file_source_streams_a_cube_in_chunks() {
        let dir = temp_dir("file");
        let cube = SceneGenerator::new(scene(21, 11, 6)).unwrap().generate();
        write_cube_as(&cube, Interleave::Bil, dir.join("one.hsif")).unwrap();
        let mut source = DirectorySource::with_chunk_bytes(&dir, 37);
        let (cubes, errors) = drain(&mut source);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(errors, 0);
        assert_eq!(cubes.len(), 1);
        assert_eq!(cubes[0].0, "one.hsif");
        assert_eq!(*cubes[0].1, cube);
    }

    #[test]
    fn directory_source_replays_sorted_and_skips_non_cube_files() {
        let dir = temp_dir("dir");
        let mut expected = Vec::new();
        for (i, seed) in [3u64, 1, 2].iter().enumerate() {
            let cube = SceneGenerator::new(scene(*seed, 8, 4)).unwrap().generate();
            let name = format!("{i:02}_cube.hsif");
            write_cube_as(&cube, Interleave::ALL[i % 3], dir.join(&name)).unwrap();
            expected.push((name, cube));
        }
        std::fs::write(dir.join("notes.txt"), b"ignored").unwrap();
        let mut source = DirectorySource::with_chunk_bytes(&dir, 64);
        let (cubes, errors) = drain(&mut source);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(errors, 0);
        assert_eq!(cubes.len(), 3);
        for ((tag, cube), (name, reference)) in cubes.iter().zip(&expected) {
            assert_eq!(tag, name);
            assert_eq!(**cube, *reference);
        }
    }

    #[test]
    fn directory_source_surfaces_corrupt_files_and_continues() {
        let dir = temp_dir("corrupt");
        std::fs::write(dir.join("00_bad.hsif"), b"XXXXgarbage").unwrap();
        let cube = SceneGenerator::new(scene(5, 8, 4)).unwrap().generate();
        write_cube_as(&cube, Interleave::Bsq, dir.join("01_good.hsif")).unwrap();
        let mut source = DirectorySource::new(&dir);
        let (cubes, errors) = drain(&mut source);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(errors, 1, "corrupt header is one error");
        assert_eq!(cubes.len(), 1, "the good file still ingests");
        assert_eq!(*cubes[0].1, cube);
    }

    #[cfg(unix)]
    #[test]
    fn non_utf8_file_names_get_distinct_tags() {
        use std::ffi::OsStr;
        use std::os::unix::ffi::OsStrExt;
        let dir = temp_dir("nonutf8");
        let cube = SceneGenerator::new(scene(9, 8, 4)).unwrap().generate();
        // Two names that differ only in their invalid bytes: a lossy
        // conversion maps both to "cube_\u{FFFD}.hsif".
        for raw in [&b"cube_\xff.hsif"[..], &b"cube_\xfe.hsif"[..]] {
            write_cube_as(&cube, Interleave::Bip, dir.join(OsStr::from_bytes(raw))).unwrap();
        }
        let mut source = DirectorySource::new(&dir);
        let (cubes, errors) = drain(&mut source);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(errors, 0);
        assert_eq!(cubes.len(), 2);
        assert_ne!(cubes[0].0, cubes[1].0, "tags must not collide");
        for (_, decoded) in &cubes {
            assert_eq!(**decoded, cube);
        }
    }

    #[test]
    fn synthetic_source_is_deterministic_and_matches_the_generator() {
        let arrivals = vec![
            ("a".to_string(), scene(40, 10, 5), Interleave::Bsq),
            ("b".to_string(), scene(41, 10, 5), Interleave::Bip),
        ];
        let mut first = SyntheticSource::new("synth", arrivals.clone(), 100);
        let mut second = SyntheticSource::new("synth", arrivals, 33);
        let (cubes_a, errors_a) = drain(&mut first);
        let (cubes_b, errors_b) = drain(&mut second);
        assert_eq!(errors_a + errors_b, 0);
        assert_eq!(cubes_a.len(), 2);
        for ((tag_a, cube_a), (tag_b, cube_b)) in cubes_a.iter().zip(&cubes_b) {
            assert_eq!(tag_a, tag_b);
            assert_eq!(
                cube_a.samples(),
                cube_b.samples(),
                "chunk size changed bits"
            );
        }
        let reference = SceneGenerator::new(scene(40, 10, 5)).unwrap().generate();
        assert_eq!(*cubes_a[0].1, reference);
    }
}
