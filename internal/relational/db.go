package relational

import "sort"

// TableData is a stored relation.
type TableData struct {
	Cols []Column
	Rows [][]Value

	version int
	indexes map[string]*sortedIndex
}

// colIndex returns the position of a column, or -1.
func (t *TableData) colIndex(name string) int {
	for i, c := range t.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// sortedIndex orders row indices by one column's value.
type sortedIndex struct {
	version int
	order   []int
}

// sorted returns (building if needed) the sorted index on col.
func (t *TableData) sorted(col int) *sortedIndex {
	key := t.Cols[col].Name
	if t.indexes == nil {
		t.indexes = map[string]*sortedIndex{}
	}
	idx := t.indexes[key]
	if idx != nil && idx.version == t.version {
		return idx
	}
	order := make([]int, len(t.Rows))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return compareValues(t.Rows[order[a]][col], t.Rows[order[b]][col]) < 0
	})
	idx = &sortedIndex{version: t.version, order: order}
	t.indexes[key] = idx
	return idx
}

// rangeSpan returns the [start, end) positions in the sorted index covering
// lo <= col <= hi, a nil bound being open; O(log n) per call.
func (t *TableData) rangeSpan(col int, lo, hi *Value) (*sortedIndex, int, int) {
	idx := t.sorted(col)
	n := len(idx.order)
	start := 0
	if lo != nil {
		start = sort.Search(n, func(i int) bool {
			return compareValues(t.Rows[idx.order[i]][col], *lo) >= 0
		})
	}
	end := n
	if hi != nil {
		end = sort.Search(n, func(i int) bool {
			return compareValues(t.Rows[idx.order[i]][col], *hi) > 0
		})
	}
	if end < start {
		end = start
	}
	return idx, start, end
}

// rangeRows returns the row indices whose col value lies in the range.
func (t *TableData) rangeRows(col int, lo, hi *Value) []int {
	idx, start, end := t.rangeSpan(col, lo, hi)
	return idx.order[start:end]
}

// rangeCount counts rows whose col value lies in the range.
func (t *TableData) rangeCount(col int, lo, hi *Value) int {
	_, start, end := t.rangeSpan(col, lo, hi)
	return end - start
}

// DB is an in-memory SQL database.
type DB struct {
	tables map[string]*TableData
}

// NewDB returns an empty database.
func NewDB() *DB { return &DB{tables: map[string]*TableData{}} }

// Result is the output of a SELECT.
type Result struct {
	Cols []string
	Rows [][]Value
}

// Exec parses and executes a script of semicolon-separated statements,
// returning the result of the last SELECT (nil if the script has none).
func (db *DB) Exec(src string) (*Result, error) {
	stmts, err := ParseScript(src)
	if err != nil {
		return nil, err
	}
	var last *Result
	for _, st := range stmts {
		r, err := db.execStmt(st)
		if err != nil {
			return nil, err
		}
		if r != nil {
			last = r
		}
	}
	return last, nil
}

// execStmt executes one parsed statement.
func (db *DB) execStmt(st Stmt) (*Result, error) {
	switch s := st.(type) {
	case *CreateTable:
		return nil, db.CreateTableData(s.Name, s.Cols)
	case *Insert:
		if db.tables[s.Table] == nil {
			return nil, errf(-1, "table %q does not exist", s.Table)
		}
		res, err := (&executor{db: db}).execSelect(s.Query, nil)
		if err != nil {
			return nil, err
		}
		return nil, db.InsertRows(s.Table, res.Rows)
	default:
		return (&executor{db: db}).execSelect(st.(*Select), nil)
	}
}

// CreateTableData creates an empty table.
func (db *DB) CreateTableData(name string, cols []Column) error {
	if _, dup := db.tables[name]; dup {
		return errf(-1, "table %q already exists", name)
	}
	if len(cols) == 0 {
		return errf(-1, "table %q needs at least one column", name)
	}
	seen := map[string]bool{}
	for _, c := range cols {
		if seen[c.Name] {
			return errf(-1, "duplicate column %q in table %q", c.Name, name)
		}
		seen[c.Name] = true
	}
	db.tables[name] = &TableData{Cols: append([]Column(nil), cols...)}
	return nil
}

// InsertRows bulk-loads rows into a table, coercing values to the column
// types; the fast path for benchmark harnesses.
func (db *DB) InsertRows(name string, rows [][]Value) error {
	t := db.tables[name]
	if t == nil {
		return errf(-1, "table %q does not exist", name)
	}
	for _, r := range rows {
		if len(r) != len(t.Cols) {
			return errf(-1, "row has %d values, table %q has %d columns", len(r), name, len(t.Cols))
		}
		stored := make([]Value, len(r))
		for i, v := range r {
			cv, err := coerceTo(v, t.Cols[i].Type)
			if err != nil {
				return err
			}
			stored[i] = cv
		}
		t.Rows = append(t.Rows, stored)
	}
	t.version++
	return nil
}
