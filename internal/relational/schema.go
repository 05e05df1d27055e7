package relational

import (
	"fmt"
	"strings"
)

// Column describes one table column.
type Column struct {
	Name    string
	Type    ColType
	NotNull bool
	// Size is the declared VARCHAR/CHAR length (0 = unbounded). Enforced on
	// insert to mimic real engines.
	Size int
}

// Schema describes a table: its columns and primary key.
type Schema struct {
	Name    string
	Columns []Column
	// PrimaryKey holds column ordinals; empty means no primary key.
	PrimaryKey []int
}

// ColIndex returns the ordinal of the named column (case-insensitive), or -1.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Validate checks schema well-formedness.
func (s *Schema) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("relational: table with empty name")
	}
	if len(s.Columns) == 0 {
		return fmt.Errorf("relational: table %s has no columns", s.Name)
	}
	seen := make(map[string]bool, len(s.Columns))
	for _, c := range s.Columns {
		lc := strings.ToLower(c.Name)
		if seen[lc] {
			return fmt.Errorf("relational: table %s: duplicate column %s", s.Name, c.Name)
		}
		seen[lc] = true
	}
	for _, ord := range s.PrimaryKey {
		if ord < 0 || ord >= len(s.Columns) {
			return fmt.Errorf("relational: table %s: primary key ordinal %d out of range", s.Name, ord)
		}
	}
	return nil
}
