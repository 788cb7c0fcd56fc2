package mongosim

// Contents returns a copy of every non-empty collection's documents,
// keyed by collection name, for tests outside the package.
func (db *DB) Contents() map[string][]Document {
	out := make(map[string][]Document)
	for name, col := range db.collections {
		if len(col.docs) > 0 {
			out[name] = append([]Document(nil), col.docs...)
		}
	}
	return out
}
