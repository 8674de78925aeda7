// Package version holds the one engine-version constant shared by the
// result store, the control API, and the public facade. It exists so the
// store's content-address keys and the daemon's client handshake can never
// drift apart: both consume this constant, and the facade re-exports it as
// repro.EngineVersion.
//
// Bump the number whenever any change alters the byte output of a cell
// (simulation numerics, aggregation, serialization formats). A bump
// invalidates every store entry — detected on read, recomputed on demand,
// no migration — and makes the daemon reject clients built from the other
// side of the change, so a mixed deployment can never blend outputs of two
// engine generations.
package version

// Engine names the simulation-engine generation, e.g. "repro-engine/8".
const Engine = "repro-engine/8"
