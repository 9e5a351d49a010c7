package fedora

import (
	"errors"
	"fmt"
)

// Production recommendation models use MANY embedding tables — one per
// sparse feature (Sec 2.1; the Criteo-Kaggle model has 26). FEDORA
// protects whichever tables hold private features; this file provides
// the multi-table façade: every table shares one main ORAM (a single
// tree also mixes the tables' access patterns together, which only helps
// obliviousness), with (table, row) pairs mapped onto the flat row space
// by per-table offsets.

// TableSpec declares one embedding table.
type TableSpec struct {
	// Name identifies the table (e.g. the sparse feature it embeds).
	Name string
	// Rows is the table height (the sparse feature's cardinality).
	Rows uint64
}

// TableLayout maps (table, row) pairs onto a flat row space.
type TableLayout struct {
	specs   []TableSpec
	offsets []uint64
	total   uint64
	byName  map[string]int
}

// NewTableLayout validates the specs and computes offsets.
func NewTableLayout(specs []TableSpec) (*TableLayout, error) {
	if len(specs) == 0 {
		return nil, errors.New("fedora: need at least one table")
	}
	l := &TableLayout{specs: specs, byName: make(map[string]int, len(specs))}
	for i, sp := range specs {
		if sp.Rows == 0 {
			return nil, fmt.Errorf("fedora: table %q has zero rows", sp.Name)
		}
		if _, dup := l.byName[sp.Name]; dup {
			return nil, fmt.Errorf("fedora: duplicate table name %q", sp.Name)
		}
		l.byName[sp.Name] = i
		l.offsets = append(l.offsets, l.total)
		l.total += sp.Rows
	}
	return l, nil
}

// TotalRows is the flat row-space size (the controller's NumRows).
func (l *TableLayout) TotalRows() uint64 { return l.total }

// GlobalRow maps (table index, row) to the flat space.
func (l *TableLayout) GlobalRow(table int, row uint64) (uint64, error) {
	if table < 0 || table >= len(l.specs) {
		return 0, fmt.Errorf("fedora: table %d out of range %d", table, len(l.specs))
	}
	if row >= l.specs[table].Rows {
		return 0, fmt.Errorf("fedora: row %d out of table %q (%d rows)",
			row, l.specs[table].Name, l.specs[table].Rows)
	}
	return l.offsets[table] + row, nil
}

// GlobalRowByName maps (table name, row).
func (l *TableLayout) GlobalRowByName(name string, row uint64) (uint64, error) {
	idx, ok := l.byName[name]
	if !ok {
		return 0, fmt.Errorf("fedora: unknown table %q", name)
	}
	return l.GlobalRow(idx, row)
}

// Locate inverts GlobalRow: which table and local row a flat ID is.
func (l *TableLayout) Locate(global uint64) (table int, row uint64, err error) {
	if global >= l.total {
		return 0, 0, fmt.Errorf("fedora: global row %d out of space %d", global, l.total)
	}
	// Tables are few (tens); linear scan is fine and branch-predictable.
	for i := len(l.offsets) - 1; i >= 0; i-- {
		if global >= l.offsets[i] {
			return i, global - l.offsets[i], nil
		}
	}
	return 0, 0, errors.New("fedora: unreachable")
}

// MultiController couples a layout with a controller whose row space
// covers every table.
type MultiController struct {
	*Controller
	Layout *TableLayout
}

// NewMulti builds a controller sized for the combined tables. The cfg's
// NumRows is overwritten by the layout's total.
func NewMulti(cfg Config, specs []TableSpec) (*MultiController, error) {
	layout, err := NewTableLayout(specs)
	if err != nil {
		return nil, err
	}
	cfg.NumRows = layout.TotalRows()
	ctrl, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &MultiController{Controller: ctrl, Layout: layout}, nil
}

// MapRequests translates per-client (table, row) requests into the flat
// request lists BeginRound takes. Dummy requests pass through.
type TableRequest struct {
	Table int
	Row   uint64
}

// FlattenRequests converts per-client TableRequest lists.
func (m *MultiController) FlattenRequests(reqs [][]TableRequest) ([][]uint64, error) {
	out := make([][]uint64, len(reqs))
	for ci, client := range reqs {
		rows := make([]uint64, 0, len(client))
		for _, tr := range client {
			g, err := m.Layout.GlobalRow(tr.Table, tr.Row)
			if err != nil {
				return nil, fmt.Errorf("client %d: %w", ci, err)
			}
			rows = append(rows, g)
		}
		out[ci] = rows
	}
	return out, nil
}

// PeekTableRow reads a row of a named table (evaluation backdoor).
func (m *MultiController) PeekTableRow(name string, row uint64) ([]float32, error) {
	g, err := m.Layout.GlobalRowByName(name, row)
	if err != nil {
		return nil, err
	}
	return m.PeekRow(g)
}
