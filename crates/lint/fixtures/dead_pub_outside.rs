// The outside half of the dead-pub fixtures: a benchmark file that
// names the library API it drives.

use oisa_optics::lint_fixture::{tuned_gain, GAIN_STEPS};

fn main() {
    println!("{}", tuned_gain(GAIN_STEPS));
}
