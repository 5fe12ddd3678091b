package hashidx

import "adaptivelink/internal/qgram"

// ImportQGramIndex reconstructs an index from an Export — the inverse
// the round-trip tests hold Export to: CheckSection's validation, then
// the dictionary adopted and the signatures transposed into postings.
// Sizes is adopted, not copied.
func ImportQGramIndex(ex *qgram.Extractor, exp QGramExport) (*QGramIndex, error) {
	n := len(exp.Sigs)
	if err := CheckSection(exp.Grams, exp.Sizes, exp.SigFloor, n, func(ref int) []uint32 { return exp.Sigs[ref] }); err != nil {
		return nil, err
	}
	dict, err := qgram.DictFromGrams(exp.Grams)
	if err != nil {
		return nil, err
	}
	x := &QGramIndex{ex: ex, dict: dict, sizes: exp.Sizes[:n:n], indexed: n, sigFloor: exp.SigFloor}
	x.transpose(exp.Sigs)
	return x, nil
}
