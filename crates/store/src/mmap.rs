//! Read-only memory mapping and the [`TapeInput`] byte source.
//!
//! Like the server's epoll reactor, the mapping calls the C library that
//! `std` already links against directly — `extern "C"` declarations, no
//! `libc` crate. [`TapeInput`] is what [`crate::TapeReader::open_file`]
//! reads from: the mapped variant serves `fill_buf` straight out of the
//! page cache (a borrowed slice, no copy into a reader buffer) and turns
//! every seek into a cursor assignment; when mapping fails (exotic
//! filesystem, a platform without `mmap`) it degrades to a plain
//! `BufReader<File>` with identical semantics.

use std::fs::File;
use std::io::{self, BufRead, Read, Seek, SeekFrom};
use std::sync::Arc;

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 0x1;
    pub const MAP_PRIVATE: i32 = 0x2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

/// A read-only, privately mapped view of an entire file.
///
/// The mapping is immutable for the process (`PROT_READ | MAP_PRIVATE`)
/// and unmapped on drop. Zero-length files get a dummy empty mapping (the
/// kernel rejects `len == 0`).
#[derive(Debug)]
pub struct Mmap {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: the raw pointer is the only thing that keeps `Mmap` from being
// `Send` automatically. The mapping it points to is owned by this value
// alone (unmapped once, in `drop`) and is not tied to the thread that
// made it, so moving it to another thread is moving a `Box<[u8]>`.
unsafe impl Send for Mmap {}
// SAFETY: the mapping is `PROT_READ` and no method hands out `&mut`
// access, so shared references on many threads only ever read — as with
// a `&[u8]`.
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Map `file` in its entirety.
    #[cfg(unix)]
    pub fn map(file: &File) -> io::Result<Mmap> {
        use std::os::unix::io::AsRawFd;
        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::OutOfMemory, "file too large to map"))?;
        if len == 0 {
            return Ok(Mmap {
                ptr: std::ptr::null_mut(),
                len: 0,
            });
        }
        // SAFETY: a null hint lets the kernel choose the address, so no
        // existing mapping can be replaced; `len` is the file's nonzero
        // length and the descriptor is open for the whole call (`file` is
        // borrowed). A private read-only map stays valid after the
        // descriptor closes. Failure is `MAP_FAILED`, checked below, and
        // leaves nothing mapped.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(Mmap {
            ptr: ptr.cast(),
            len,
        })
    }

    #[cfg(not(unix))]
    pub fn map(_file: &File) -> io::Result<Mmap> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "mmap unavailable on this platform",
        ))
    }

    /// The mapped bytes.
    pub fn bytes(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: a nonzero `len` means `ptr` came from a successful `mmap`
        // of exactly `len` readable bytes, mapped until `drop`, which the
        // returned borrow of `self` outlives. The map is private and
        // read-only, so nothing in this process writes through it. (A file
        // truncated underneath a map makes the tail fault on access; tapes
        // are replaced by rename, never truncated in place.)
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Mapped length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        #[cfg(unix)]
        if self.len > 0 {
            // SAFETY: `ptr`/`len` are exactly the region `map` obtained, it
            // is unmapped only here, and `&mut self` proves no slice from
            // `bytes` is still borrowed.
            unsafe {
                sys::munmap(self.ptr.cast(), self.len);
            }
        }
    }
}

impl std::ops::Deref for Mmap {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.bytes()
    }
}

/// Byte source behind a file-opened [`crate::TapeReader`]: a memory map
/// when the platform grants one, a buffered file otherwise. Both variants
/// implement `BufRead + Seek`, so every reader path is identical past this
/// point.
#[derive(Debug)]
pub enum TapeInput {
    /// Zero-copy page-cache reads; seeks are cursor assignments.
    Mapped { map: Arc<Mmap>, pos: u64 },
    /// Fallback: plain buffered file I/O (seeks discard the buffer).
    Buffered(std::io::BufReader<File>),
}

impl TapeInput {
    /// Open `file`, mapping it unless the map syscall fails.
    pub fn open(file: File) -> TapeInput {
        match Mmap::map(&file) {
            Ok(map) => TapeInput::Mapped {
                map: Arc::new(map),
                pos: 0,
            },
            Err(_) => TapeInput::Buffered(std::io::BufReader::new(file)),
        }
    }

    /// Whether this input is served by a memory map.
    pub fn is_mapped(&self) -> bool {
        matches!(self, TapeInput::Mapped { .. })
    }
}

impl Read for TapeInput {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            TapeInput::Mapped { map, pos } => {
                let bytes = map.bytes();
                let at = (*pos).min(bytes.len() as u64) as usize;
                let n = (bytes.len() - at).min(buf.len());
                buf[..n].copy_from_slice(&bytes[at..at + n]);
                *pos += n as u64;
                Ok(n)
            }
            TapeInput::Buffered(r) => r.read(buf),
        }
    }
}

impl BufRead for TapeInput {
    #[inline]
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        match self {
            TapeInput::Mapped { map, pos } => {
                let bytes = map.bytes();
                let at = (*pos).min(bytes.len() as u64) as usize;
                Ok(&bytes[at..])
            }
            TapeInput::Buffered(r) => r.fill_buf(),
        }
    }

    #[inline]
    fn consume(&mut self, amt: usize) {
        match self {
            TapeInput::Mapped { pos, .. } => *pos += amt as u64,
            TapeInput::Buffered(r) => r.consume(amt),
        }
    }
}

impl Seek for TapeInput {
    fn seek(&mut self, target: SeekFrom) -> io::Result<u64> {
        match self {
            TapeInput::Mapped { map, pos } => {
                let len = map.len() as i64;
                let next = match target {
                    SeekFrom::Start(n) => n as i64,
                    SeekFrom::End(d) => len + d,
                    SeekFrom::Current(d) => *pos as i64 + d,
                };
                if next < 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        "seek before start of mapped tape",
                    ));
                }
                *pos = next as u64;
                Ok(*pos)
            }
            TapeInput::Buffered(r) => r.seek(target),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn mapped_input_reads_and_seeks_like_a_file() {
        let path = std::env::temp_dir().join(format!("foxq-mmap-{}.bin", std::process::id()));
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&payload)
            .unwrap();
        let mut input = TapeInput::open(File::open(&path).unwrap());
        assert!(input.is_mapped(), "plain tmpfile should map");
        assert_eq!(input.seek(SeekFrom::End(0)).unwrap(), payload.len() as u64);
        input.seek(SeekFrom::Start(5_000)).unwrap();
        let mut buf = [0u8; 16];
        input.read_exact(&mut buf).unwrap();
        assert_eq!(&buf[..], &payload[5_000..5_016]);
        // fill_buf over a map is the whole remaining slice — no refills.
        input.seek(SeekFrom::Start(0)).unwrap();
        assert_eq!(input.fill_buf().unwrap().len(), payload.len());
        // Reading past the end is EOF, not an error.
        input
            .seek(SeekFrom::Start(payload.len() as u64 + 7))
            .unwrap();
        assert_eq!(input.read(&mut buf).unwrap(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_files_map_to_empty_slices() {
        let path = std::env::temp_dir().join(format!("foxq-mmap-empty-{}.bin", std::process::id()));
        std::fs::File::create(&path).unwrap();
        let map = Mmap::map(&File::open(&path).unwrap()).unwrap();
        assert!(map.is_empty());
        assert_eq!(map.bytes(), &[] as &[u8]);
        let _ = std::fs::remove_file(&path);
    }
}
