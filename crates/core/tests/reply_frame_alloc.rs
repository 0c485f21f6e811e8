//! What an error reply may allocate, held by `cargo test`: the frame is
//! one status byte, so encoding it allocates what encoding any one-byte
//! message allocates, one buffer (refcount and bytes together), under
//! either of the frame's names. The control frame once encoded a whole
//! NFS frame on the side to learn the status byte, and decoded one to
//! get it back: twice the allocations per failed control RPC.
//!
//! This file is a test binary of its own with a single test, so nothing
//! else allocates while it counts.

use kosha::control::KoshaReplyFrame;
use kosha_nfs::messages::{NfsReplyFrame, ReplyFrame};
use kosha_nfs::NfsStatus;
use kosha_rpc::{WireRead, WireWrite};

#[path = "../../rpc/tests/support/counting.rs"]
mod counting;
use counting::{allocations_by, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn an_error_reply_frame_allocates_its_one_buffer() {
    // The thread's first encode makes the scratch buffer every later
    // one encodes into: not what the count is about.
    6u8.encode();
    let (byte, one_buffer) = allocations_by(|| 6u8.encode());
    assert_eq!(one_buffer, 1, "a one-byte message");
    let control: KoshaReplyFrame = ReplyFrame(Err(NfsStatus::NoSpc));
    let nfs: NfsReplyFrame = ReplyFrame(Err(NfsStatus::NoSpc));

    let (encoded, allocs) = allocations_by(|| control.encode());
    assert_eq!(encoded, byte);
    assert_eq!(allocs, one_buffer);
    assert_eq!(allocations_by(|| nfs.encode()), (byte, one_buffer));

    let (decoded, allocs) = allocations_by(|| KoshaReplyFrame::decode(&encoded));
    assert_eq!(decoded, Ok(control));
    assert_eq!(allocs, 0);
    assert_eq!(
        allocations_by(|| NfsReplyFrame::decode(&encoded)),
        (Ok(nfs), 0)
    );
}
