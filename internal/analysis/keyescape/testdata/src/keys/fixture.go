// Package keys is the keyescape fixture: key-builder functions
// (name-matched on (?i)(canonical|plan|cache|view)key) assembling keys
// from escaped and unescaped fragments. keyEscape stands in for the
// real helper — the analyzer matches it by name.
package keys

import "fmt"

// keyEscape models the escaping helper.
func keyEscape(s string) string { return "esc:" + s }

// canonicalKey concatenates raw fragments: both variable leaves are
// flagged, the literal delimiter is not.
func canonicalKey(table, pred string) string {
	return "t|" + table + "|" + pred // want `unescaped fragment table` `unescaped fragment pred`
}

// planKey formats a raw string into the key; the int renders without
// delimiters and is unchecked.
func planKey(sql string, workers int) string {
	return fmt.Sprintf("plan|%s|%d", sql, workers) // want `unescaped string argument sql`
}

// cacheKey routes every variable fragment through the helper: quiet.
func cacheKey(tenant, sql string) string {
	return "c|" + keyEscape(tenant) + "|" + keyEscape(sql)
}

// viewPart escapes every string it returns, so the framework's
// transitive EscapedKeyFn fact marks calls to it as safe material.
func viewPart(name string) string {
	return keyEscape(name)
}

// viewKey embeds the escaped builder's result: quiet.
func viewKey(name string) string {
	return "v|" + viewPart(name)
}

// join concatenates raw strings but is not a key builder: quiet.
func join(a, b string) string {
	return a + b
}

// shardCacheKey embeds a fragment that is collision-safe for a reason
// the analyzer cannot see: suppressed.
func shardCacheKey(id string) string {
	//aggvet:keyescape id is validated upstream against [A-Za-z0-9_]+ and cannot carry delimiters.
	return "s|" + id
}

// planKeyBytes renders into a byte buffer: the table spread in raw is
// flagged; the escaped predicate, the literal and the single bytes are
// not.
func planKeyBytes(dst []byte, table, pred string) []byte {
	dst = append(dst, "p|"...)
	dst = append(dst, table...) // want `unescaped fragment table appended`
	dst = append(dst, '|')
	return append(dst, keyEscape(pred)...)
}

// appendParts spreads raw strings but is not a key builder: quiet.
func appendParts(dst []byte, parts []string) []byte {
	for _, p := range parts {
		dst = append(dst, p...)
	}
	return dst
}
