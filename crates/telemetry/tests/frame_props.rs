//! Property tests for the wire codec: [`read_frame`] over arbitrary
//! byte streams never panics, reports a clean close (`Ok(None)`) only
//! at a frame boundary, and never allocates past [`MAX_FRAME`] however
//! corrupt the length prefix — a peer cannot make the reader reserve
//! more than one maximal frame.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Cursor;
use std::sync::atomic::{AtomicUsize, Ordering};

use flight_telemetry::{read_frame, write_frame, MAX_FRAME};
use proptest::prelude::*;

/// The system allocator, recording the largest single request made on
/// any thread since `LARGEST` was last reset. The other tests in this
/// binary allocate at most a few hundred bytes at a time.
struct LargestAlloc;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// so `System` upholds the `GlobalAlloc` contract; the only addition is
// a relaxed atomic max, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

/// Length prefixes clustered where the codec's decisions are: tiny,
/// around [`MAX_FRAME`], and anywhere in `u32`.
fn length_prefix() -> proptest::strategy::Union<u32> {
    prop_oneof![
        0u32..16,
        (MAX_FRAME as u32 - 2)..(MAX_FRAME as u32 + 3),
        0u32..u32::MAX,
    ]
}

/// Reads frames from `stream` until a close or an error, checking every
/// step: a frame consumes exactly its prefix plus payload, and a clean
/// close happens only with no bytes left. Returns the frames read.
fn read_all(stream: &[u8]) -> Result<Vec<Vec<u8>>, TestCaseError> {
    let mut cursor = Cursor::new(stream);
    let mut frames = Vec::new();
    loop {
        let at = cursor.position() as usize;
        match read_frame(&mut cursor) {
            Ok(None) => {
                prop_assert_eq!(at, stream.len(), "clean close mid-stream");
                return Ok(frames);
            }
            Ok(Some(payload)) => {
                prop_assert!(payload.len() <= MAX_FRAME);
                prop_assert_eq!(cursor.position() as usize, at + 4 + payload.len());
                prop_assert_eq!(&payload[..], &stream[at + 4..at + 4 + payload.len()]);
                frames.push(payload);
            }
            Err(_) => return Ok(frames),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_or_close_off_a_boundary(
        bytes in prop::collection::vec(0u8..=255, 0..64),
    ) {
        read_all(&bytes)?;
    }

    #[test]
    fn corrupt_prefixes_never_allocate_past_max_frame(
        len in length_prefix(),
        tail in prop::collection::vec(0u8..=255, 0..32),
    ) {
        let mut stream = len.to_le_bytes().to_vec();
        stream.extend_from_slice(&tail);
        LARGEST.store(0, Ordering::Relaxed);
        let result = read_frame(&mut Cursor::new(&stream[..]));
        let largest = LARGEST.load(Ordering::Relaxed);
        prop_assert!(largest <= MAX_FRAME, "allocated {largest} bytes for prefix {len}");
        if len as usize > MAX_FRAME || len as usize > tail.len() {
            prop_assert!(result.is_err(), "oversized or truncated frame accepted");
        }
    }

    #[test]
    fn written_frames_read_back_then_close_cleanly(
        payloads in prop::collection::vec(prop::collection::vec(0u8..=255, 0..40), 0..6),
        cut in 0usize..400,
    ) {
        let mut stream = Vec::new();
        for p in &payloads {
            write_frame(&mut stream, p).unwrap();
        }
        prop_assert_eq!(read_all(&stream)?, payloads.clone());
        // Any truncation reads a prefix of the frames, never a close
        // inside one.
        let cut = cut.min(stream.len());
        let frames = read_all(&stream[..cut])?;
        prop_assert_eq!(&frames[..], &payloads[..frames.len()]);
    }
}
