// Package storage is the pluggable seam between the ORAM stacks and the
// bytes underneath them. Every ORAM in this repository talks to a
// device.Device; this package decides what that device really is:
//
//   - KindSim — the discrete-event simulator (device.Sim), which moves
//     real bytes through host memory and returns *modelled* durations
//     from the device profile. This is the paper's methodology: its
//     results are ratios over access counts and sizes.
//   - KindFile — a real file on a real filesystem (File, this package):
//     4 KB-page-aligned preads/pwrites against a preallocated backing
//     file, O_DIRECT where the platform and filesystem support it, and
//     an fsync whenever 4096 pages (16 MB) have been written since the
//     last one. Every operation returns its *measured* wall-clock
//     duration, so the latency numbers that flow into RoundStats come
//     from actual hardware — the measurement the paper itself could not
//     make.
//
// The two backends are interchangeable behind device.Storage: contents
// are bit-faithful either way (a read returns exactly what was last
// written), they share one snapshot wire format (a checkpoint taken
// over the simulator restores onto a file-backed device and back), and
// the fault injector (internal/fault) wraps either one because it
// interposes on the device.Device interface, above this seam.
//
// Key invariants: backend choice never changes stored bytes — an FL run
// lands on a bit-identical model fingerprint on either backend at equal
// seed/workers/shards; only durations and the durability of the backing
// bytes differ. The backing file is working state, not the durable copy:
// crash recovery restores devices from the checkpoint/WAL layer
// (internal/persist), so OpenFile always starts from a zeroed file.
package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/device"
)

// Kind selects the storage backend realizing a device.
type Kind int

const (
	// KindSim is the discrete-event simulator (device.Sim) — the default.
	KindSim Kind = iota
	// KindFile is the real-I/O file-backed device (File).
	KindFile
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindSim:
		return "sim"
	case KindFile:
		return "file"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ParseKind parses the CLI spelling of a backend ("sim" or "file").
func ParseKind(s string) (Kind, error) {
	switch s {
	case "", "sim":
		return KindSim, nil
	case "file":
		return KindFile, nil
	default:
		return 0, fmt.Errorf("storage: unknown backend %q (want sim or file)", s)
	}
}

// Spec selects and parameterizes the backend for every device a
// controller provisions. The zero value is the simulator, which keeps
// existing construction paths unchanged.
type Spec struct {
	// Kind selects the backend.
	Kind Kind
	// Dir is the directory holding backing files (KindFile). Required for
	// KindFile; ParseSpec falls back to a fresh temp directory, which
	// RemoveTemp deletes.
	Dir string
	// Direct requests O_DIRECT on the backing file, bypassing the page
	// cache so measured latencies come from the device, not DRAM. When
	// the platform or filesystem does not support it (tmpfs does not),
	// the device silently falls back to buffered I/O and reports
	// Direct=false in its Report.
	Direct bool
	// Prefix distinguishes backing files when several controllers share
	// one Dir; the sharded controller sets "shard<i>" so each shard owns
	// one backing file per device.
	Prefix string

	temp bool // Dir was created by ParseSpec
}

// ParseSpec builds a Spec from the CLI flag values (-storage,
// -storage-dir, -storage-direct). An empty dir with the file backend
// resolves to a fresh temporary directory so smoke runs need no setup;
// the caller removes it with RemoveTemp once its devices are closed.
func ParseSpec(kind, dir string, direct bool) (Spec, error) {
	k, err := ParseKind(kind)
	if err != nil {
		return Spec{}, err
	}
	temp := k == KindFile && dir == ""
	if temp {
		dir, err = os.MkdirTemp("", "fedora-storage-")
		if err != nil {
			return Spec{}, fmt.Errorf("storage: create temp dir: %w", err)
		}
	}
	return Spec{Kind: k, Dir: dir, Direct: direct, temp: temp}, nil
}

// RemoveTemp deletes Dir and the backing files in it if ParseSpec
// created it, and does nothing otherwise: a directory the caller named
// is never removed. Call it after closing every device opened under the
// Spec.
func (s Spec) RemoveTemp() error {
	if !s.temp {
		return nil
	}
	return os.RemoveAll(s.Dir)
}

// Open provisions one device under the seam: the simulator for KindSim,
// a file-backed device (one backing file, named after the device and the
// Spec prefix) for KindFile. name is the controller's device name
// ("ssd", or "shard3/ssd" via Prefix when sharded).
func Open(name string, p device.Profile, capacity uint64, spec Spec) (device.Storage, error) {
	switch spec.Kind {
	case KindSim:
		return device.NewSim(p, capacity), nil
	case KindFile:
		if spec.Dir == "" {
			return nil, fmt.Errorf("storage: file backend needs a directory (Spec.Dir) for device %q", name)
		}
		qual := name
		if spec.Prefix != "" {
			// Match the fault injector's per-shard naming ("shard3/ssd")
			// so reports and fault plans identify devices the same way.
			qual = spec.Prefix + "/" + name
		}
		return OpenFile(qual, filepath.Join(spec.Dir, backingFileName(spec.Prefix, name)), p, capacity, spec)
	default:
		return nil, fmt.Errorf("storage: unknown backend %v", spec.Kind)
	}
}

// backingFileName maps a (prefix, device name) pair to a filesystem-safe
// file name: "ssd" -> "ssd.dev", prefix "shard3" -> "shard3-ssd.dev".
func backingFileName(prefix, name string) string {
	full := name
	if prefix != "" {
		full = prefix + "-" + name
	}
	full = strings.ReplaceAll(full, "/", "-")
	return full + ".dev"
}
