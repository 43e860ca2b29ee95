package sinr

// Intra-slot parallelism thresholds. Slots (or solver systems) below
// these sizes resolve serially: the fan-out fixed cost only pays for
// itself on large working sets. Declared as variables so tests can
// lower them to exercise the parallel paths on small inputs. The
// fan-outs above them dispatch on the parked pool in internal/par.
var (
	// parallelMinTx is the minimum slot size (len(tx)) before a
	// resolver shards the per-link loop across workers.
	parallelMinTx = 256
	// parallelMinRows is the minimum system size k before the
	// power-control solver fans out its gain-row build and shed sums.
	parallelMinRows = 128
	// parallelMinIterRows is the minimum k before each fixed-point
	// iteration pass fans out (the per-iteration barrier costs more
	// than the one-shot phases, so the threshold is higher).
	parallelMinIterRows = 512
)
