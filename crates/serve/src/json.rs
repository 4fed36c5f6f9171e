//! Forwards to [`rapids_obs::json`], the workspace's one JSON module.
//! Kept only because the `perfbench/` harness imports these three names:
//! that directory is the benchmark's fixed yardstick, so the module goes
//! when the benchmark is next revised.

pub use rapids_obs::json::{escape_string, parse_flat_object, Value as JsonValue};
