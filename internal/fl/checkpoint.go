package fl

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/persist"
)

// Model checkpointing: serialize the global model (MLP parameters +
// every embedding row) so a run can be snapshotted, inspected, or
// resumed. Rows are read through the evaluation backdoor; a production
// deployment would snapshot the encrypted ORAM image instead (the
// durable Runner does exactly that) — this is the library-user
// convenience for model export.
//
// The format is the framed/CRC-checked persist container (sections
// model/meta, model/mlp, model/rows).

const (
	checkpointVersion = 2

	sectionModelMeta = "model/meta"
	sectionModelMLP  = "model/mlp"
	sectionModelRows = "model/rows"
)

// SaveModel writes the global MLP and all embedding rows to w in the
// framed format.
func (t *Trainer) SaveModel(w io.Writer) error {
	fw, err := persist.NewFrameWriter(w, persist.Magic)
	if err != nil {
		return err
	}
	var meta persist.Encoder
	meta.U32(checkpointVersion)
	meta.U32(uint32(t.cfg.Dim))
	meta.U64(t.cfg.Dataset.NumItems)
	if err := fw.WriteFrame(sectionModelMeta, meta.Finish()); err != nil {
		return err
	}
	var mlp persist.Encoder
	mlp.F32s(t.global.MLP.Params())
	if err := fw.WriteFrame(sectionModelMLP, mlp.Finish()); err != nil {
		return err
	}
	var rows persist.Encoder
	numRows := t.cfg.Dataset.NumItems
	rows.U64(numRows)
	for row := uint64(0); row < numRows; row++ {
		v, err := t.orch.PeekRow(row)
		if err != nil {
			return fmt.Errorf("fl: snapshot row %d: %w", row, err)
		}
		rows.U64(row)
		rows.F32s(v)
	}
	if err := fw.WriteFrame(sectionModelRows, rows.Finish()); err != nil {
		return err
	}
	return fw.Close()
}

// SaveModelFile writes the model checkpoint to path atomically (temp
// file + fsync + rename): a crash mid-write leaves either the previous
// file or the new one, never a torn mix.
func (t *Trainer) SaveModelFile(path string) error {
	return persist.WriteFileAtomic(path, func(f *os.File) error {
		return t.SaveModel(f)
	})
}

// LoadModel restores the global MLP from r and returns the embedding
// table snapshot. The trainer's ORAM state is NOT rewritten (ORAM contents
// evolve through rounds); use the returned table with
// recmodel.MapSource for inference, or seed a fresh trainer's InitRow.
func LoadModel(r io.Reader) (mlpParams []float32, dim int, rows map[uint64][]float32, err error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(len(persist.Magic))
	if err != nil {
		return nil, 0, nil, fmt.Errorf("fl: decode checkpoint: %w", err)
	}
	if string(head) != persist.Magic {
		return nil, 0, nil, fmt.Errorf("fl: decode checkpoint: stream starts with %q, not the %q of a model checkpoint", head, persist.Magic)
	}
	fr, err := persist.NewFrameReader(br, persist.Magic)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("fl: decode checkpoint: %w", err)
	}
	var numRows uint64
	sawMeta := false
	for {
		name, payload, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, 0, nil, fmt.Errorf("fl: decode checkpoint: %w", err)
		}
		d := persist.NewDecoder(payload)
		switch name {
		case sectionModelMeta:
			version := d.U32()
			dim = int(d.U32())
			numRows = d.U64()
			if d.Err() == nil && version != checkpointVersion {
				return nil, 0, nil, fmt.Errorf("fl: unsupported checkpoint version %d", version)
			}
			sawMeta = true
		case sectionModelMLP:
			mlpParams = d.F32s()
		case sectionModelRows:
			n := d.Count(8+8, "rows") // an id and a row's length, at least
			rows = make(map[uint64][]float32, n)
			for i := 0; i < n && d.Err() == nil; i++ {
				id := d.U64()
				rows[id] = d.F32s()
			}
		default:
			continue // unknown section: skip for forward compatibility
		}
		if err := d.Err(); err != nil {
			return nil, 0, nil, fmt.Errorf("fl: decode checkpoint section %q: %w", name, err)
		}
	}
	if !sawMeta || dim <= 0 || len(mlpParams) == 0 {
		return nil, 0, nil, errors.New("fl: malformed checkpoint")
	}
	if numRows != uint64(len(rows)) {
		return nil, 0, nil, fmt.Errorf("fl: checkpoint claims %d rows, holds %d", numRows, len(rows))
	}
	return mlpParams, dim, rows, nil
}

// RestoreMLP installs checkpointed MLP parameters into this trainer.
func (t *Trainer) RestoreMLP(params []float32) error {
	return t.global.MLP.SetParams(params)
}
