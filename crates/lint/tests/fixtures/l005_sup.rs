//! L005 suppressed fixture: the risky path exists, but the entry is
//! waived in place with a justification.

impl Relay {
    fn spread(&self) {
        let _ = self.net.call(self.origin, self.next, ping());
    }
}

impl RpcHandler for Relay {
    // lint: allow(L005) fixture: designed nesting level justified here
    fn handle(&self) {
        self.spread();
    }
}

// A second entry of the same handler that only delegates to the waived
// one: traversal stops at the waived entry, so it needs no waiver.
impl RpcHandler for Framed {
    fn handle(&self) {
        self.handle_frame();
    }

    // lint: allow(L005) fixture: designed nesting level justified here
    fn handle_frame(&self) {
        let _ = self.net.call(self.origin, self.next, ping());
    }
}
