//go:build race

package dynsched

// raceEnabled reports whether the race detector is compiled in; the
// scale smoke budgets are meaningless under its slowdown, and the
// largest scale scenarios outgrow small hosts under it.
const raceEnabled = true
