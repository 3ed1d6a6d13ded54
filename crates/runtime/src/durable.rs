//! Crash-consistent persistence primitives.
//!
//! Every artifact the workspace writes — checkpoints, record streams,
//! summaries — must survive the process dying at an arbitrary byte.
//! This module is the whole durability story, in four layers:
//!
//! - **[`AtomicFile`]** — replace-file writes with the classic
//!   write-temp → fsync → rename → fsync-parent-dir ordering, so a
//!   reader never observes a half-written document and a kill can at
//!   worst leave a stale `.part` sibling behind.
//! - **Generation pairs** ([`GenPair`]) — two alternating checkpoint
//!   slots (`<base>.a` / `<base>.b`) carrying a monotonic generation
//!   counter and a self-validating `sintgen` header (length + CRC-32).
//!   A store always overwrites the *older* slot, so the newest valid
//!   generation survives any crash — even a torn overwrite of the slot
//!   being written — and [`GenPair::load`] falls back to it.
//! - **Framed streams** — [`frame`] appends a fixed-width
//!   `#llllllllcccccccc` suffix (hex payload length + hex CRC-32) to a
//!   record line; [`unframe`] validates it, and [`scan_frames`] walks a
//!   possibly-torn stream, returning the longest valid prefix and the
//!   byte count of the corrupt tail. [`recover_stream_file`] truncates
//!   an on-disk stream back to that prefix in place. The suffix is
//!   anchored at the line *end*, so `#` inside a JSON payload can
//!   never confuse the parse, and rendering stays deterministic — the
//!   byte-identity gates in `verify.sh` hold framed or not.
//! - **Disk faults** — [`DiskFault`] names the classic write failures
//!   (short write, torn write at byte *k*, `ENOSPC`, failed rename);
//!   [`draw_write_fault`] draws a write-path shape from a forked
//!   [`Rng64`] lane, and [`FaultyWriter`] injects one into any `Write`.
//!   The fleet's chaos plan drives its `ChaosKind::Disk` storms
//!   through these.
//!   [`FuseWriter`] is the crash half: it delivers exactly `limit`
//!   bytes downstream, then flushes and trips a caller-supplied fuse —
//!   how the `--kill-at-byte` tools die at a precise stream offset.
//!
//! The CRC is the standard IEEE reflected CRC-32 (the zlib/PNG
//! polynomial), implemented on a const-built table — no dependencies,
//! ~0.5 B/cycle, far faster than the solver work it guards.

use crate::rng::Rng64;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------------
// CRC-32 (IEEE, reflected, table-driven)
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[n] = c;
        n += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// The IEEE CRC-32 of `bytes` (polynomial `0xEDB88320`, reflected —
/// the zlib/PNG/`cksum -o3` checksum). `crc32(b"123456789")` is the
/// canonical `0xCBF4_3926` check value, locked by a unit test.
#[must_use]
fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Line framing
// ---------------------------------------------------------------------------

/// Width of the frame suffix appended by [`frame`]: a `#` marker, 8
/// hex digits of payload length, 8 hex digits of CRC-32.
pub const FRAME_SUFFIX_LEN: usize = 17;

/// Wraps one record payload in a frame: `payload` + `#` + eight hex
/// digits of byte length + eight hex digits of its IEEE CRC-32. The suffix
/// is fixed-width and anchored at the end of the line, so framing is
/// deterministic and reversible regardless of what the payload
/// contains (payloads must stay under 4 GiB for the width to hold —
/// a record line is a few hundred bytes).
#[must_use]
pub fn frame(payload: &str) -> String {
    format!("{payload}#{:08x}{:08x}", payload.len(), crc32(payload.as_bytes()))
}

/// Why a line failed frame validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Shorter than the suffix itself.
    TooShort,
    /// The byte before the 16 hex digits is not `#`.
    NoMarker,
    /// The suffix digits are not lowercase hex.
    BadHex,
    /// The suffix's length field disagrees with the actual payload
    /// length — the classic torn-write signature.
    LengthMismatch {
        /// Length the suffix claims.
        claimed: usize,
        /// Length actually present.
        actual: usize,
    },
    /// Payload bytes do not hash to the suffix's CRC.
    CrcMismatch,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::TooShort => write!(f, "line shorter than a frame suffix"),
            FrameError::NoMarker => write!(f, "frame marker '#' missing"),
            FrameError::BadHex => write!(f, "frame suffix is not hex"),
            FrameError::LengthMismatch { claimed, actual } => {
                write!(f, "frame claims {claimed} payload bytes, found {actual}")
            }
            FrameError::CrcMismatch => write!(f, "payload does not match its CRC-32"),
        }
    }
}

impl std::error::Error for FrameError {}

fn parse_hex8(digits: &[u8]) -> Option<u32> {
    if digits.len() != 8 {
        return None;
    }
    let mut value = 0u32;
    for &d in digits {
        let nibble = match d {
            b'0'..=b'9' => d - b'0',
            // Only the lowercase alphabet we emit — anything else is
            // corruption, not an alternate spelling.
            b'a'..=b'f' => d - b'a' + 10,
            _ => return None,
        };
        value = (value << 4) | u32::from(nibble);
    }
    Some(value)
}

/// Validates one framed line (no trailing newline) and returns its
/// payload bytes.
///
/// # Errors
///
/// A [`FrameError`] naming the first check that failed.
fn unframe_bytes(line: &[u8]) -> Result<&[u8], FrameError> {
    if line.len() < FRAME_SUFFIX_LEN {
        return Err(FrameError::TooShort);
    }
    let split = line.len() - FRAME_SUFFIX_LEN;
    if line[split] != b'#' {
        return Err(FrameError::NoMarker);
    }
    let claimed = parse_hex8(&line[split + 1..split + 9]).ok_or(FrameError::BadHex)? as usize;
    let crc = parse_hex8(&line[split + 9..]).ok_or(FrameError::BadHex)?;
    if claimed != split {
        return Err(FrameError::LengthMismatch { claimed, actual: split });
    }
    let payload = &line[..split];
    if crc32(payload) != crc {
        return Err(FrameError::CrcMismatch);
    }
    Ok(payload)
}

/// Validates one framed line (no trailing newline) and returns its
/// payload slice.
///
/// # Errors
///
/// A [`FrameError`] naming the first check that failed.
pub fn unframe(line: &str) -> Result<&str, FrameError> {
    let payload = unframe_bytes(line.as_bytes())?;
    // The suffix is pure ASCII, so the split is on a char boundary.
    line.get(..payload.len()).ok_or(FrameError::NoMarker)
}

/// What a [`scan_frames`] pass over a (possibly torn) stream found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamScan {
    /// Valid framed records in the prefix.
    pub records: u64,
    /// Byte length of the longest valid prefix (every line in it
    /// newline-terminated and frame-valid).
    pub valid_bytes: u64,
    /// Bytes past the prefix — the torn/garbage tail. `0` means the
    /// stream was clean.
    pub dropped_bytes: u64,
}

impl StreamScan {
    /// Whether the stream needed recovery at all.
    #[must_use]
    pub fn torn(&self) -> bool {
        self.dropped_bytes > 0
    }
}

/// Walks a framed stream from the start and returns the payloads of
/// its **longest valid prefix** plus the [`StreamScan`] accounting.
///
/// A line counts into the prefix only if it is newline-terminated and
/// frame-valid (blank lines pass as separators); the first violation —
/// a torn final line, a missing trailing newline, arbitrary appended
/// garbage — ends the prefix and everything after it is reported as
/// `dropped_bytes`. Works on raw bytes so a binary-garbage tail cannot
/// prevent recovery of the UTF-8 records before it.
#[must_use]
pub fn scan_frames(data: &[u8]) -> (Vec<&[u8]>, StreamScan) {
    let mut payloads = Vec::new();
    let mut offset = 0usize;
    let mut valid_bytes = 0u64;
    while offset < data.len() {
        let Some(nl) = data[offset..].iter().position(|&b| b == b'\n') else {
            break;
        };
        let line = &data[offset..offset + nl];
        if !line.is_empty() {
            match unframe_bytes(line) {
                Ok(payload) => payloads.push(payload),
                Err(_) => break,
            }
        }
        offset += nl + 1;
        valid_bytes = offset as u64;
    }
    let scan = StreamScan {
        records: payloads.len() as u64,
        valid_bytes,
        dropped_bytes: data.len() as u64 - valid_bytes,
    };
    (payloads, scan)
}

/// Recovers an on-disk framed stream in place: scans it, truncates the
/// file to its longest valid prefix, and syncs. Returns the scan so
/// the caller can report how many records survived and how many bytes
/// were dropped — and therefore which trials need re-running.
///
/// # Errors
///
/// Any real I/O failure opening, reading, truncating or syncing.
pub fn recover_stream_file(path: impl AsRef<Path>) -> io::Result<StreamScan> {
    let mut file = OpenOptions::new().read(true).write(true).open(path)?;
    let mut data = Vec::new();
    file.read_to_end(&mut data)?;
    let (_, scan) = scan_frames(&data);
    if scan.torn() {
        file.set_len(scan.valid_bytes)?;
        file.sync_all()?;
    }
    Ok(scan)
}

// ---------------------------------------------------------------------------
// Atomic replace-file writes
// ---------------------------------------------------------------------------

/// Write-temp → fsync → rename → fsync-parent-dir replace-file writes.
/// A reader (or a post-crash resume) sees either the old contents or
/// the new, never a prefix; the worst a kill leaves behind is a stale
/// `<name>.part` sibling that the next write replaces.
#[derive(Debug, Clone, Copy)]
pub struct AtomicFile;

impl AtomicFile {
    /// Atomically replaces `path` with `contents`.
    ///
    /// # Errors
    ///
    /// Any underlying I/O failure; on error the target file is
    /// untouched and the temp sibling is removed (best-effort).
    pub fn write(path: impl AsRef<Path>, contents: &[u8]) -> io::Result<()> {
        AtomicFile::write_faulted(path.as_ref(), contents, None)
    }

    /// [`AtomicFile::write`] with an optional injected [`DiskFault`],
    /// for the unit tests. A write-path fault (short, torn,
    /// `ENOSPC`) fires inside the temp-file stage; a
    /// [`DiskFault::RenameFail`] fails the publish step after a fully
    /// staged temp. Either way the previous contents of `path` stay
    /// intact — that surviving is the point of the ordering.
    ///
    /// # Errors
    ///
    /// The injected fault (except a survivable short write) or any
    /// real I/O failure.
    fn write_faulted(
        path: &Path,
        contents: &[u8],
        fault: Option<DiskFault>,
    ) -> io::Result<()> {
        let tmp = part_path(path);
        if let Err(e) = stage(&tmp, contents, fault) {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        if matches!(fault, Some(DiskFault::RenameFail)) {
            let _ = fs::remove_file(&tmp);
            return Err(io::Error::other("injected rename failure"));
        }
        fs::rename(&tmp, path)?;
        sync_parent_dir(path);
        Ok(())
    }
}

/// Writes and fsyncs the staged temp file, routing the bytes through a
/// [`FaultyWriter`] when a write-path fault is injected.
fn stage(tmp: &Path, contents: &[u8], fault: Option<DiskFault>) -> io::Result<()> {
    let mut file = File::create(tmp)?;
    match fault {
        Some(f) if f != DiskFault::RenameFail => {
            let mut writer = FaultyWriter::with_fault(&mut file, Some(f));
            writer.write_all(contents)?;
        }
        _ => file.write_all(contents)?,
    }
    file.sync_all()
}

fn part_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map_or_else(|| "sint".into(), std::ffi::OsStr::to_os_string);
    name.push(".part");
    path.with_file_name(name)
}

/// Fsyncs the parent directory so the rename itself is durable.
/// Best-effort: not every platform lets a directory be opened, and a
/// lost rename after power failure degrades to "resume from the prior
/// generation", which the generation pair already tolerates.
fn sync_parent_dir(path: &Path) {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    if let Ok(dir) = File::open(parent) {
        let _ = dir.sync_all();
    }
}

// ---------------------------------------------------------------------------
// Generation-pair checkpoints
// ---------------------------------------------------------------------------

/// Magic word opening a generation-slot header.
pub const GEN_MAGIC: &str = "sintgen";

/// A two-slot checkpoint file pair: `<base>.a` and `<base>.b`, each a
/// `sintgen <generation> <len-hex> <crc-hex>` header line plus the
/// payload. [`GenPair::store`] writes generation *n+1* into whichever
/// slot does **not** hold the newest valid generation (via
/// [`AtomicFile`]), and [`GenPair::load`] returns the newest slot that
/// validates — so no single crash, torn write, or corrupted slot can
/// cost more than one generation of progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenPair {
    base: PathBuf,
}

impl GenPair {
    /// A pair rooted at `base` (slots are `<base>.a` / `<base>.b`).
    #[must_use]
    pub fn new(base: impl Into<PathBuf>) -> GenPair {
        GenPair { base: base.into() }
    }

    /// The two slot paths, `.a` first.
    #[must_use]
    pub fn slots(&self) -> (PathBuf, PathBuf) {
        (self.slot("a"), self.slot("b"))
    }

    fn slot(&self, suffix: &str) -> PathBuf {
        let mut name = self
            .base
            .file_name()
            .map_or_else(|| "ckpt".into(), std::ffi::OsStr::to_os_string);
        name.push(".");
        name.push(suffix);
        self.base.with_file_name(name)
    }

    /// Loads the newest valid generation: `Some((generation,
    /// payload))`, or `None` when neither slot holds a valid snapshot
    /// (a fresh run). Invalid slots — missing, torn, corrupted, wrong
    /// magic — are skipped, not errors: they are exactly what a crash
    /// leaves behind.
    ///
    /// # Errors
    ///
    /// Real I/O failures only (permissions, hardware); `NotFound` and
    /// validation failures mean "no snapshot here".
    pub fn load(&self) -> io::Result<Option<(u64, String)>> {
        let (a, b) = self.slots();
        Ok(match (read_slot(&a)?, read_slot(&b)?) {
            (Some(x), Some(y)) => Some(if x.0 >= y.0 { x } else { y }),
            (Some(x), None) => Some(x),
            (None, Some(y)) => Some(y),
            (None, None) => None,
        })
    }

    /// Stores `payload` as the next generation, atomically, into the
    /// slot not holding the newest valid snapshot. Returns the
    /// generation written.
    ///
    /// # Errors
    ///
    /// Any I/O failure; the surviving slot is never touched.
    /// [`io::ErrorKind::InvalidData`] when the newest slot already
    /// carries generation `u64::MAX`, which no store can supersede.
    pub fn store(&self, payload: &str) -> io::Result<u64> {
        let (target, generation) = self.next_slot()?;
        AtomicFile::write(&target, render_slot(generation, payload).as_bytes())?;
        Ok(generation)
    }

    /// Simulates a crash mid-store: writes a **torn** image of the
    /// next generation — header claiming the full payload, but only
    /// the first `keep` bytes of the file actually present — directly
    /// (non-atomically) into the target slot. The surviving slot is
    /// untouched, so a subsequent [`GenPair::load`] must fall back to
    /// it; `verify.sh`'s generation-pair gate drives exactly this.
    ///
    /// # Errors
    ///
    /// Any I/O failure writing the torn image, or
    /// [`io::ErrorKind::InvalidData`] as for [`GenPair::store`].
    pub fn tear(&self, payload: &str, keep: usize) -> io::Result<u64> {
        let (target, generation) = self.next_slot()?;
        let image = render_slot(generation, payload);
        fs::write(&target, &image.as_bytes()[..keep.min(image.len())])?;
        Ok(generation)
    }

    /// The slot the next store targets and the generation it will
    /// carry: always the slot *not* holding the newest valid snapshot.
    /// A slot's generation comes from its file, so it may be
    /// `u64::MAX`; wrapping to 0 would write a generation every later
    /// load ranks below the stale slot.
    fn next_slot(&self) -> io::Result<(PathBuf, u64)> {
        let (a_path, b_path) = self.slots();
        let (target, newest) = match (read_slot(&a_path)?, read_slot(&b_path)?) {
            (None, None) => (a_path, 0),
            (Some((ga, _)), None) => (b_path, ga),
            (None, Some((gb, _))) => (a_path, gb),
            (Some((ga, _)), Some((gb, _))) => {
                if ga >= gb {
                    (b_path, ga)
                } else {
                    (a_path, gb)
                }
            }
        };
        let generation = newest.checked_add(1).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("checkpoint generation {newest} cannot advance"),
            )
        })?;
        Ok((target, generation))
    }
}

fn render_slot(generation: u64, payload: &str) -> String {
    format!(
        "{GEN_MAGIC} {generation} {:08x} {:08x}\n{payload}",
        payload.len(),
        crc32(payload.as_bytes())
    )
}

/// Reads one slot; `Ok(None)` for missing or invalid (the crash
/// leftovers [`GenPair::load`] must tolerate), `Err` only for real
/// I/O failures.
fn read_slot(path: &Path) -> io::Result<Option<(u64, String)>> {
    let data = match fs::read(path) {
        Ok(data) => data,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    Ok(parse_slot(&data))
}

fn parse_slot(data: &[u8]) -> Option<(u64, String)> {
    let nl = data.iter().position(|&b| b == b'\n')?;
    let header = std::str::from_utf8(&data[..nl]).ok()?;
    let mut parts = header.split(' ');
    if parts.next()? != GEN_MAGIC {
        return None;
    }
    let generation = parts.next()?.parse::<u64>().ok()?;
    let len = u32::from_str_radix(parts.next()?, 16).ok()? as usize;
    let crc = u32::from_str_radix(parts.next()?, 16).ok()?;
    if parts.next().is_some() {
        return None;
    }
    let payload = &data[nl + 1..];
    if payload.len() != len || crc32(payload) != crc {
        return None;
    }
    Some((generation, std::str::from_utf8(payload).ok()?.to_string()))
}

// ---------------------------------------------------------------------------
// Deterministic disk faults
// ---------------------------------------------------------------------------

/// One injected disk failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFault {
    /// The write accepts only `keep` bytes (a legal partial write —
    /// `write_all` loops recover it, so it stresses retry paths
    /// without failing the operation).
    ShortWrite {
        /// Bytes the write accepts (clamped to the buffer).
        keep: usize,
    },
    /// `at` bytes land, then the write errors — a torn write.
    Torn {
        /// Bytes that land before the error (clamped to the buffer).
        at: usize,
    },
    /// `ENOSPC` — nothing lands, the device is full.
    NoSpace,
    /// The data staged fine but the publishing rename fails —
    /// meaningful only to an atomic file write, never drawn by
    /// [`draw_write_fault`].
    RenameFail,
}

impl DiskFault {
    /// Stable tag for reports.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            DiskFault::ShortWrite { .. } => "short_write",
            DiskFault::Torn { .. } => "torn_write",
            DiskFault::NoSpace => "enospc",
            DiskFault::RenameFail => "rename_fail",
        }
    }
}

/// Draws a write-path fault shape from `lane` — the fleet chaos plan's
/// one source of disk-fault shapes. Never draws
/// [`DiskFault::RenameFail`]: that one only makes sense at the
/// [`AtomicFile`] publish step, not inside a byte stream.
#[must_use]
pub fn draw_write_fault(lane: &mut Rng64) -> DiskFault {
    match lane.gen_index(3) {
        0 => DiskFault::ShortWrite { keep: 1 + lane.gen_index(32) },
        1 => DiskFault::Torn { at: lane.gen_index(96) },
        _ => DiskFault::NoSpace,
    }
}

/// A `Write` adapter injecting one pre-drawn [`DiskFault`]
/// ([`FaultyWriter::with_fault`]) on its first write op. Short writes
/// return legally short; torn writes land a prefix then error;
/// `ENOSPC` errors with the real `ENOSPC` errno on Unix.
#[derive(Debug)]
pub struct FaultyWriter<W: Write> {
    inner: W,
    op: u64,
    fault: Option<DiskFault>,
}

impl<W: Write> FaultyWriter<W> {
    /// Wraps `inner` with at most one fault, injected on the first
    /// write op (the supervisor's per-record realization path).
    #[must_use]
    pub fn with_fault(inner: W, fault: Option<DiskFault>) -> FaultyWriter<W> {
        FaultyWriter { inner, op: 0, fault }
    }

    /// Write ops attempted so far.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.op
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

/// The injected-`ENOSPC` error: the real errno on Unix so callers
/// exercising `ErrorKind` matching see the genuine article.
fn no_space() -> io::Error {
    #[cfg(unix)]
    {
        io::Error::from_raw_os_error(28)
    }
    #[cfg(not(unix))]
    {
        io::Error::other("no space left on device (injected)")
    }
}

impl<W: Write> Write for FaultyWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let fault = self.fault.take();
        self.op += 1;
        match fault {
            None => self.inner.write(buf),
            Some(DiskFault::ShortWrite { keep }) => {
                if buf.is_empty() {
                    return self.inner.write(buf);
                }
                self.inner.write(&buf[..keep.clamp(1, buf.len())])
            }
            Some(DiskFault::Torn { at }) => {
                let at = at.min(buf.len());
                self.inner.write_all(&buf[..at])?;
                Err(io::Error::other(format!("injected torn write after {at} bytes")))
            }
            Some(DiskFault::NoSpace) => Err(no_space()),
            Some(DiskFault::RenameFail) => Err(io::Error::other("injected rename failure")),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

// ---------------------------------------------------------------------------
// The kill fuse
// ---------------------------------------------------------------------------

/// A `Write` adapter that delivers exactly `limit` bytes downstream,
/// then flushes what landed and trips a caller-supplied fuse —
/// typically `std::process::exit` — so a tool can die at a precise
/// byte offset of its output stream, regardless of any buffering
/// stacked above it. If the fuse returns, the write errors.
pub struct FuseWriter<W: Write> {
    inner: W,
    remaining: u64,
    fuse: Box<dyn FnMut() + Send>,
}

impl<W: Write> FuseWriter<W> {
    /// Wraps `inner`; the fuse trips once cumulative writes reach
    /// `limit` bytes (`u64::MAX` ≈ never).
    #[must_use]
    pub fn new(inner: W, limit: u64, fuse: impl FnMut() + Send + 'static) -> FuseWriter<W> {
        FuseWriter { inner, remaining: limit, fuse: Box::new(fuse) }
    }

    /// Unwraps the inner writer (for the final fsync of a run that
    /// never reached the limit).
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> fmt::Debug for FuseWriter<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FuseWriter").field("remaining", &self.remaining).finish_non_exhaustive()
    }
}

impl<W: Write> Write for FuseWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.len() as u64 <= self.remaining {
            let n = self.inner.write(buf)?;
            self.remaining -= n as u64;
            return Ok(n);
        }
        let keep = self.remaining as usize;
        self.inner.write_all(&buf[..keep])?;
        self.inner.flush()?;
        self.remaining = 0;
        (self.fuse)();
        Err(io::Error::other("write fuse blown"))
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh scratch directory per test, under the system temp root.
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("sint_durable_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc32_matches_the_canonical_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn frame_round_trips_and_rejects_tampering() {
        for payload in ["", "x", r#"{"v":2,"kind":"trial","note":"has # inside"}"#] {
            let framed = frame(payload);
            assert_eq!(framed.len(), payload.len() + FRAME_SUFFIX_LEN);
            assert_eq!(unframe(&framed).unwrap(), payload);
        }
        let framed = frame("hello");
        assert_eq!(unframe("xy"), Err(FrameError::TooShort));
        assert_eq!(unframe(&framed.replace('#', "!")), Err(FrameError::NoMarker));
        // Flip one payload byte: CRC catches it.
        let mut corrupt = framed.clone().into_bytes();
        corrupt[0] ^= 0x20;
        assert_eq!(
            unframe_bytes(&corrupt),
            Err(FrameError::CrcMismatch),
            "bit flip must not validate"
        );
        // Truncate from the front of a concatenation: length mismatch.
        assert!(matches!(
            unframe(&framed[1..]),
            Err(FrameError::LengthMismatch { .. } | FrameError::CrcMismatch)
        ));
        // Uppercase hex is never emitted, so it is corruption.
        let upper = framed.to_uppercase();
        assert_eq!(unframe(&upper), Err(FrameError::BadHex));
    }

    #[test]
    fn scan_returns_exactly_the_longest_valid_prefix() {
        let lines: Vec<String> = (0..5).map(|i| frame(&format!("record-{i}"))).collect();
        let clean = lines.iter().map(|l| format!("{l}\n")).collect::<String>();
        let (payloads, scan) = scan_frames(clean.as_bytes());
        assert_eq!(payloads.len(), 5);
        assert_eq!(scan.records, 5);
        assert_eq!(scan.valid_bytes, clean.len() as u64);
        assert!(!scan.torn());

        // A torn final line: prefix ends before it.
        let torn = format!("{clean}{}", &lines[0][..7]);
        let (payloads, scan) = scan_frames(torn.as_bytes());
        assert_eq!(payloads.len(), 5);
        assert_eq!(scan.valid_bytes, clean.len() as u64);
        assert_eq!(scan.dropped_bytes, 7);

        // Binary garbage mid-stream: everything after is dropped.
        let mut garbled = format!("{}\n{}", lines[0], lines[1]).into_bytes();
        garbled.extend_from_slice(&[0xC0, 0xAF, b'\n']);
        garbled.extend_from_slice(format!("{}\n", lines[2]).as_bytes());
        let (payloads, scan) = scan_frames(&garbled);
        assert_eq!(payloads.len(), 1);
        assert_eq!(scan.valid_bytes, (lines[0].len() + 1) as u64);

        // A frame-valid line missing its newline is still torn.
        let unterminated = format!("{}\n{}", lines[0], lines[1]);
        let (_, scan) = scan_frames(unterminated.as_bytes());
        assert_eq!(scan.records, 1);
        assert_eq!(scan.dropped_bytes, lines[1].len() as u64);

        // Blank separator lines stay in the prefix.
        let blanks = format!("{}\n\n{}\n", lines[0], lines[1]);
        let (payloads, scan) = scan_frames(blanks.as_bytes());
        assert_eq!(payloads.len(), 2);
        assert!(!scan.torn());
    }

    #[test]
    fn recover_truncates_a_torn_stream_in_place() {
        let dir = scratch("recover");
        let path = dir.join("records.jsonl");
        let good: String = (0..3).map(|i| format!("{}\n", frame(&format!("r{i}")))).collect();
        fs::write(&path, format!("{good}torn-garbage")).unwrap();
        let scan = recover_stream_file(&path).unwrap();
        assert_eq!(scan.records, 3);
        assert_eq!(scan.dropped_bytes, "torn-garbage".len() as u64);
        assert_eq!(fs::read_to_string(&path).unwrap(), good);
        // A second pass is a no-op.
        let scan = recover_stream_file(&path).unwrap();
        assert!(!scan.torn());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_replaces_and_survives_faults() {
        let dir = scratch("atomic");
        let path = dir.join("doc.json");
        AtomicFile::write(&path, b"generation one").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"generation one");
        AtomicFile::write(&path, b"generation two").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"generation two");

        // Every write-path fault leaves the previous contents intact
        // and no .part litter that a later write cannot replace.
        for fault in [
            DiskFault::Torn { at: 3 },
            DiskFault::NoSpace,
            DiskFault::RenameFail,
        ] {
            let err = AtomicFile::write_faulted(&path, b"doomed", Some(fault)).unwrap_err();
            assert!(!err.to_string().is_empty());
            assert_eq!(fs::read(&path).unwrap(), b"generation two", "{fault:?}");
        }
        // A short write is survivable: write_all loops through it.
        AtomicFile::write_faulted(&path, b"generation three", Some(DiskFault::ShortWrite { keep: 4 }))
            .unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"generation three");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gen_pair_alternates_slots_and_survives_either_slot_dying() {
        let dir = scratch("genpair");
        let pair = GenPair::new(dir.join("ckpt.json"));
        assert_eq!(pair.load().unwrap(), None);
        assert_eq!(pair.store("one").unwrap(), 1);
        assert_eq!(pair.store("two").unwrap(), 2);
        assert_eq!(pair.load().unwrap(), Some((2, "two".to_string())));
        let (a, b) = pair.slots();
        assert!(a.exists() && b.exists(), "both slots populated after two stores");

        // Corrupt the newest slot → load falls back one generation.
        let newest = if fs::read_to_string(&a).unwrap().contains(" 2 ") { &a } else { &b };
        fs::write(newest, "sintgen 9 00000003 deadbeef\nxyz").unwrap();
        assert_eq!(pair.load().unwrap(), Some((1, "one".to_string())));
        // The next store reclaims the corrupt slot and moves on.
        assert_eq!(pair.store("three").unwrap(), 2);
        assert_eq!(pair.load().unwrap(), Some((2, "three".to_string())));

        // Truncate (tear) the other slot instead: same story.
        let (valid_gen, _) = pair.load().unwrap().unwrap();
        let stale = if newest == &a { &b } else { &a };
        let bytes = fs::read(stale).unwrap();
        fs::write(stale, &bytes[..bytes.len() / 2]).unwrap();
        assert_eq!(pair.load().unwrap().unwrap().0, valid_gen);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_store_never_destroys_the_surviving_generation() {
        let dir = scratch("tear");
        let pair = GenPair::new(dir.join("ckpt.json"));
        pair.store("good snapshot").unwrap();
        for keep in [0, 5, 20, 31] {
            pair.tear("bigger replacement snapshot", keep).unwrap();
            assert_eq!(
                pair.load().unwrap(),
                Some((1, "good snapshot".to_string())),
                "keep={keep}"
            );
        }
        // A completed store after the crash still advances.
        assert_eq!(pair.store("recovered").unwrap(), 2);
        assert_eq!(pair.load().unwrap(), Some((2, "recovered".to_string())));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_slot_at_the_last_generation_refuses_the_next_store() {
        let dir = scratch("genmax");
        let pair = GenPair::new(dir.join("ckpt.json"));
        let (a, _) = pair.slots();
        fs::write(&a, render_slot(u64::MAX, "stale")).unwrap();
        for err in [pair.store("fresh").unwrap_err(), pair.tear("fresh", 4).unwrap_err()] {
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
        assert_eq!(pair.load().unwrap(), Some((u64::MAX, "stale".to_string())));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulty_writer_realizes_each_fault_shape() {
        // Short write: legal partial, write_all recovers.
        let mut w = FaultyWriter::with_fault(Vec::new(), Some(DiskFault::ShortWrite { keep: 3 }));
        w.write_all(b"abcdefgh").unwrap();
        assert_eq!(w.ops(), 2, "one short op plus the completing op");
        assert_eq!(w.into_inner(), b"abcdefgh");

        // Torn write: prefix lands, then the error.
        let mut w = FaultyWriter::with_fault(Vec::new(), Some(DiskFault::Torn { at: 5 }));
        assert!(w.write_all(b"abcdefgh").is_err());
        assert_eq!(w.into_inner(), b"abcde");

        // ENOSPC: nothing lands, and on Unix the errno is the real one.
        let mut w = FaultyWriter::with_fault(Vec::new(), Some(DiskFault::NoSpace));
        let err = w.write_all(b"abc").unwrap_err();
        #[cfg(unix)]
        assert_eq!(err.raw_os_error(), Some(28), "{err}");
        assert!(w.into_inner().is_empty());

        // No fault: transparent.
        let mut w = FaultyWriter::with_fault(Vec::new(), None);
        w.write_all(b"abc").unwrap();
        w.flush().unwrap();
        assert_eq!(w.into_inner(), b"abc");
    }

    #[test]
    fn fuse_writer_delivers_exactly_the_limit_then_trips() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let tripped = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&tripped);
        let mut w = FuseWriter::new(Vec::new(), 10, move || {
            flag.store(true, Ordering::SeqCst);
        });
        w.write_all(b"1234567").unwrap();
        assert!(!tripped.load(Ordering::SeqCst));
        assert!(w.write_all(b"89abcdef").is_err());
        assert!(tripped.load(Ordering::SeqCst));
        assert_eq!(w.into_inner(), b"123456789a", "exactly 10 bytes downstream");

        let mut w = FuseWriter::new(Vec::new(), u64::MAX, || {});
        w.write_all(b"unlimited").unwrap();
        assert_eq!(w.into_inner(), b"unlimited");
    }
}
