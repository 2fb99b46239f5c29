//! Fixture: `PacketBuf::freeze` as it stood before the pool recycled
//! the reference-count shell with its slab — one `Rc::new` per packet
//! on the hottest path, which `hot-path-purity` never saw (no pattern
//! for it, and `freeze` was not a root).

use std::rc::Rc;

pub struct PacketBuf {
    data: Vec<u8>,
}

pub struct Packet {
    shared: Rc<PacketBuf>,
}

impl PacketBuf {
    pub fn freeze(self) -> Packet {
        Packet {
            shared: Rc::new(self),
        }
    }
}
