package trajtree

import (
	"trajmatch/internal/backend"
)

// SharedBound is the shared backend.SharedBound: a monotonically
// tightening upper bound shared by concurrent searches. The sharded
// engine fans one k-NN query out across per-shard trees, and every shard
// search publishes its local k-th-best distance here the moment its
// answer set fills; see backend.SharedBound for the admissibility
// argument.
type SharedBound = backend.SharedBound
