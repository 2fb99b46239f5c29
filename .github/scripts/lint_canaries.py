#!/usr/bin/env python3
"""Seed one violation per entry of the determinism contract's lint policy
into real member crates, run clippy over the workspace, and fail unless
every seeded line is flagged with exactly the lint its marker names and
no other seeded line is flagged.

The policy is the `[workspace.lints]` table of Cargo.toml, the
`[lints.rust]` tables of iw-bench and iw-propcheck, clippy.toml and
crates/{analysis,telemetry}/clippy.toml (DESIGN.md §9). Removing any
entry there leaves its seed unflagged; dropping an `allow-*-in-tests`
key flags the seeded test, so either way this exits 1.

Each seed ends in `// lint: <name>...`, the lints expected on that line;
other lints (`missing_docs` on the seeds) are not compared. Clippy runs
with `--cap-lints warn`, so a seed in one crate does not stop the crates
that depend on it from being checked.

The seeds are written into the tree this runs in. CI runs it on its
throwaway checkout (`--in-place`); elsewhere run it on a copy, e.g.
`git archive HEAD | tar -x -C <dir>` and then run it inside `<dir>`.
"""

import json
import os
import subprocess
import sys

PANICS = """
pub fn unwrap(x: Option<u8>) -> u8 {
    x.unwrap() // lint: clippy::unwrap_used
}
pub fn expect(x: Option<u8>) -> u8 {
    x.expect("seeded") // lint: clippy::expect_used
}
pub fn panic() {
    panic!("seeded") // lint: clippy::panic
}
pub fn unreachable() {
    unreachable!() // lint: clippy::unreachable
}
pub fn todo() {
    todo!() // lint: clippy::todo
}
pub fn unimplemented() {
    unimplemented!() // lint: clippy::unimplemented
}
"""

WALL_CLOCK = """
pub fn instant(_: std::time::Instant) {} // lint: clippy::disallowed_types
pub fn system_time(_: std::time::SystemTime) {} // lint: clippy::disallowed_types
pub fn instant_now() {
    let _ = std::time::Instant::now(); // lint: clippy::disallowed_methods clippy::disallowed_types
}
pub fn system_time_now() {
    let _ = std::time::SystemTime::now(); // lint: clippy::disallowed_methods clippy::disallowed_types
}
pub fn epoch_elapsed() {
    let _ = std::time::UNIX_EPOCH.elapsed(); // lint: clippy::disallowed_methods
}
pub fn since_epoch() {
    let _ = std::time::UNIX_EPOCH.duration_since(std::time::UNIX_EPOCH); // lint: clippy::disallowed_methods
}
"""

ATOMICS = ["Bool", "U8", "U16", "U32", "U64", "Usize", "I8", "I16", "I32", "I64", "Isize"]

SHARED_STATE = "".join(
    [
        "pub fn mutex(_: std::sync::Mutex<u8>) {} // lint: clippy::disallowed_types\n",
        "pub fn rw_lock(_: std::sync::RwLock<u8>) {} // lint: clippy::disallowed_types\n",
        "pub fn condvar(_: std::sync::Condvar) {} // lint: clippy::disallowed_types\n",
        "pub fn atomic_ptr(_: std::sync::atomic::AtomicPtr<u8>) {} // lint: clippy::disallowed_types\n",
    ]
    + [
        f"pub fn atomic_{a.lower()}(_: std::sync::atomic::Atomic{a}) {{}} // lint: clippy::disallowed_types\n"
        for a in ATOMICS
    ]
    + [
        "pub fn sender(_: std::sync::mpsc::Sender<u8>) {} // lint: clippy::disallowed_types\n",
        "pub fn sync_sender(_: std::sync::mpsc::SyncSender<u8>) {} // lint: clippy::disallowed_types\n",
        "pub fn receiver(_: std::sync::mpsc::Receiver<u8>) {} // lint: clippy::disallowed_types\n",
        "pub fn channel() {\n",
        "    let _ = std::sync::mpsc::channel::<u8>(); // lint: clippy::disallowed_methods\n",
        "}\n",
        "pub fn sync_channel() {\n",
        "    let _ = std::sync::mpsc::sync_channel::<u8>(1); // lint: clippy::disallowed_methods\n",
        "}\n",
        "std::thread_local! { // lint: clippy::disallowed_macros\n",
        "    pub static SEEDED: u8 = const { 0 };\n",
        "}\n",
    ]
)

RNG = """
pub fn random_state(_: std::hash::RandomState) {} // lint: clippy::disallowed_types
"""

HASH = """
pub fn hash_map(_: std::collections::HashMap<u8, u8>) {} // lint: clippy::disallowed_types
pub fn hash_set(_: std::collections::HashSet<u8>) {} // lint: clippy::disallowed_types
"""

TESTS_MAY_PANIC = """
#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap_expect_and_panic() {
        let one = Some(1u8);
        assert_eq!(one.unwrap(), one.expect("one"));
        if one.is_none() {
            panic!("never");
        }
    }
}
"""

INSTANT_NOW = """
pub fn instant_now() {
    let _ = std::time::Instant::now(); // lint: clippy::disallowed_methods clippy::disallowed_types
}
"""

UNSAFE = """
unsafe fn _seeded() {} // lint: unsafe_code
"""

# A library canary becomes `pub mod lint_canary` of its crate; the others
# are appended to an existing target.
LIBRARY_CANARIES = {
    # The root clippy.toml and the workspace lint levels, entry by entry.
    "netsim": PANICS + WALL_CLOCK + SHARED_STATE + RNG + TESTS_MAY_PANIC,
    # The two crate files: the hash containers, and the root policy they
    # must repeat.
    "telemetry": HASH + PANICS + WALL_CLOCK + TESTS_MAY_PANIC,
    "analysis": HASH + INSTANT_NOW + TESTS_MAY_PANIC,
    # The rest of the old wall-clock scope.
    "core": INSTANT_NOW,
    "hoststack": INSTANT_NOW,
    "wire": INSTANT_NOW,
}
APPENDED = {
    "crates/cli/src/main.rs": UNSAFE,  # a bin under [workspace.lints]
    "crates/cli/tests/exit_codes.rs": UNSAFE,  # an integration test under it
    "tests/integration.rs": UNSAFE,  # a root test under iw-bench's own table
}


def seed():
    seeded = {}
    for krate, body in LIBRARY_CANARIES.items():
        path = f"crates/{krate}/src/lint_canary.rs"
        with open(path, "w") as f:
            f.write("//! Seeded violations of the lint policy.\n" + body)
        with open(f"crates/{krate}/src/lib.rs", "a") as f:
            f.write("\npub mod lint_canary;\n")
        seeded[path] = 0
    for path, body in APPENDED.items():
        with open(path) as f:
            seeded[path] = sum(1 for _ in f)
        with open(path, "a") as f:
            f.write(body)
    return seeded


def expected(seeded):
    want = set()
    for path, start in seeded.items():
        with open(path) as f:
            for n, line in enumerate(f, 1):
                if n > start and "// lint: " in line:
                    for lint in line.split("// lint: ")[1].split():
                        want.add((path, n, lint))
    return want


def flagged(seeded, policy):
    out = subprocess.run(
        ["cargo", "clippy", "--offline", "--locked", "--workspace", "--all-targets",
         "--message-format=json", "--", "--cap-lints", "warn"],
        stdout=subprocess.PIPE, check=False, text=True,
    ).stdout
    got = set()
    for record in map(json.loads, out.splitlines()):
        message = record.get("message")
        if record.get("reason") != "compiler-message" or not message["code"]:
            continue
        for span in message["spans"]:
            path = os.path.normpath(span["file_name"])
            lint = message["code"]["code"]
            if span["is_primary"] and lint in policy and path in seeded \
                    and span["line_start"] > seeded[path]:
                got.add((path, span["line_start"], lint))
    return got


def main():
    if sys.argv[1:] != ["--in-place"]:
        sys.exit("usage: lint_canaries.py --in-place  (writes seeds into this tree)")
    if os.path.exists("crates/netsim/src/lint_canary.rs"):
        sys.exit("this tree is already seeded")
    seeded = seed()
    want = expected(seeded)
    got = flagged(seeded, {lint for _, _, lint in want})
    for path, line, lint in sorted(want - got):
        print(f"{path}:{line}: seeded `{lint}` violation not flagged")
    for path, line, lint in sorted(got - want):
        print(f"{path}:{line}: unexpected `{lint}`")
    print(f"{len(want & got)} of {len(want)} seeded violations flagged")
    sys.exit(0 if want == got else 1)


if __name__ == "__main__":
    main()
