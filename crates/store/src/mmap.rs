//! Dependency-free memory mapping with a buffered-read fallback.
//!
//! Shards open through [`read_file`], which memory-maps on Unix (via
//! the vendored `libc` FFI shim — raw `mmap`/`munmap`, no external
//! code) and falls back to an ordinary buffered read when mapping is
//! unavailable (non-Unix targets) or fails. [`ReadMode::Buffered`]
//! forces the fallback, so tests can exercise it on any platform.
//! Either way the caller gets [`FileBytes`], which derefs to `&[u8]`;
//! whether the bytes are borrowed from the page cache or owned on the
//! heap is invisible above this module.

use std::fs::File;
use std::io::Read;
use std::ops::Deref;
use std::path::Path;

/// How to load a shard file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadMode {
    /// mmap when possible, buffered read otherwise (the default).
    Auto,
    /// Always buffered read (the fallback path, forced by tests).
    Buffered,
}

/// A whole file's bytes: either a live read-only mapping or an owned
/// buffer.
pub enum FileBytes {
    /// Memory-mapped (Unix only).
    #[cfg(unix)]
    Mapped(Mmap),
    /// Read into the heap.
    Owned(Vec<u8>),
}

impl Deref for FileBytes {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            FileBytes::Mapped(m) => m,
            FileBytes::Owned(v) => v,
        }
    }
}

impl std::fmt::Debug for FileBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            #[cfg(unix)]
            FileBytes::Mapped(m) => write!(f, "FileBytes::Mapped({} bytes)", m.len()),
            FileBytes::Owned(v) => write!(f, "FileBytes::Owned({} bytes)", v.len()),
        }
    }
}

/// Whether these bytes came from an mmap (observability/tests).
pub fn is_mapped(bytes: &FileBytes) -> bool {
    match bytes {
        #[cfg(unix)]
        FileBytes::Mapped(_) => true,
        FileBytes::Owned(_) => false,
    }
}

/// Load a file per `mode`. mmap failure (or a zero-length file, which
/// `mmap` rejects) silently degrades to the buffered path — mapping is
/// an optimization, never a correctness requirement.
pub fn read_file(path: &Path, mode: ReadMode) -> std::io::Result<FileBytes> {
    let mut file = File::open(path)?;
    let len = file.metadata()?.len() as usize;
    #[cfg(unix)]
    if mode == ReadMode::Auto && len > 0 {
        if let Some(map) = Mmap::map(&file, len) {
            return Ok(FileBytes::Mapped(map));
        }
    }
    let _ = mode;
    let mut buf = Vec::with_capacity(len);
    file.read_to_end(&mut buf)?;
    Ok(FileBytes::Owned(buf))
}

/// A read-only private mapping of an entire file.
#[cfg(unix)]
pub struct Mmap {
    ptr: *mut libc::c_void,
    len: usize,
}

// Read-only, MAP_PRIVATE, and never handed out mutably: safe to share
// across threads.
#[cfg(unix)]
unsafe impl Send for Mmap {}
#[cfg(unix)]
unsafe impl Sync for Mmap {}

#[cfg(unix)]
impl Mmap {
    /// Map `len` bytes of `file` read-only; `None` if the kernel
    /// refuses (caller falls back to a buffered read).
    fn map(file: &File, len: usize) -> Option<Self> {
        use std::os::unix::io::AsRawFd;
        let ptr = unsafe {
            libc::mmap(
                std::ptr::null_mut(),
                len,
                libc::PROT_READ,
                libc::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == libc::MAP_FAILED {
            return None;
        }
        Some(Self { ptr, len })
    }
}

#[cfg(unix)]
impl Deref for Mmap {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
    }
}

#[cfg(unix)]
impl Drop for Mmap {
    fn drop(&mut self) {
        unsafe {
            libc::munmap(self.ptr, self.len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        static SEQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!("dasc-mmap-{}-{tag}-{seq}", std::process::id()))
    }

    #[test]
    fn mapped_and_buffered_agree() {
        let path = temp_path("agree");
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &payload).expect("write temp file");

        let auto = read_file(&path, ReadMode::Auto).expect("auto read");
        let buf = read_file(&path, ReadMode::Buffered).expect("buffered read");
        assert_eq!(&auto[..], &payload[..]);
        assert_eq!(&buf[..], &payload[..]);
        assert!(!is_mapped(&buf));
        #[cfg(unix)]
        assert!(is_mapped(&auto), "unix Auto should mmap a non-empty file");

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_degrades_to_owned() {
        let path = temp_path("empty");
        std::fs::write(&path, b"").expect("write temp file");
        let bytes = read_file(&path, ReadMode::Auto).expect("read empty");
        assert!(bytes.is_empty());
        assert!(!is_mapped(&bytes));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let path = temp_path("missing");
        assert!(read_file(&path, ReadMode::Auto).is_err());
    }
}
