package datagen

import "fmt"

// Script selects the writing system the generator composes location
// keys from. The default (ASCII) is the paper's pseudo-Italian setting;
// the non-Latin scripts exist so parity, fuzz and benchmark harnesses
// exercise the engine's Unicode paths — rune-packed q-grams, profile
// normalization — on realistic key shapes rather than mangled ASCII.
type Script int

const (
	// ASCII is the historical default: pseudo-Italian place names over
	// A–Z (the paper's §4.1 generator shape).
	ASCII Script = iota
	// LatinDiacritic composes Latin keys with diacritics and special
	// letters (ÅØÜÉŠŁ...), the shape the "latin" normalization profile
	// targets.
	LatinDiacritic
	// Cyrillic composes Russian-style place names (Кириллица).
	Cyrillic
	// Greek composes Greek place names (Ελληνικά).
	Greek
	// CJK composes Japanese-style place names from single-character
	// ideograph "syllables".
	CJK
)

// scriptNames is the one table of script names: String reads it and
// ParseScript inverts it.
var scriptNames = [...]string{
	ASCII:          "ascii",
	LatinDiacritic: "latin-diacritic",
	Cyrillic:       "cyrillic",
	Greek:          "greek",
	CJK:            "cjk",
}

// String names the script as used in test-case labels.
func (s Script) String() string {
	if s >= 0 && int(s) < len(scriptNames) {
		return scriptNames[s]
	}
	return fmt.Sprintf("Script(%d)", int(s))
}

// AllScripts lists every script the generator supports.
var AllScripts = []Script{ASCII, LatinDiacritic, Cyrillic, Greek, CJK}

// ParseScript is String's inverse over AllScripts: it returns the
// script String names, and ok false for any other name.
func ParseScript(name string) (s Script, ok bool) {
	for _, s = range AllScripts {
		if s.String() == name {
			return s, true
		}
	}
	return 0, false
}

// scriptParts bundles a script's composition material: region and
// province prefixes plus the syllable pool words are built from. All
// runes are BMP, so generated keys stay on the engine's rune-packed
// gram fast path.
type scriptParts struct {
	regions   []string
	provinces []string
	syllables []string
}

var scriptTables = map[Script]scriptParts{
	ASCII: {regions: regionCodes, provinces: provinceCodes, syllables: syllables},
	LatinDiacritic: {
		regions:   []string{"ÅLD", "ØST", "ÜBE", "ÉVO", "ŠIB", "ŁÓD", "ÇAN", "ÑAN", "ÆRO", "ÐAL"},
		provinces: []string{"ÅR", "ØS", "ÜL", "ÉT", "ŠK", "ŁA", "ÇE", "ÑO", "ÆB", "ÞI"},
		syllables: []string{
			"MÜN", "CHÊ", "ØST", "ÅKE", "ZÜ", "RÎ", "ÇÀ", "ÑO", "ÃO", "ÛR",
			"ÖL", "ÄCK", "ÉTÉ", "ÈVE", "ÍA", "ÓN", "ÚL", "ŠKO", "ŽUP", "ŁÓD",
			"ĆMA", "ĐUR", "ÞÓR", "ÐEG", "ŒUV", "ÆBL", "ŸVE", "ÏLE", "ÔTE", "ÂNE",
		},
	},
	Cyrillic: {
		regions:   []string{"МОС", "ЛЕН", "НОВ", "СВЕ", "КРА", "ПРИ", "ХАБ", "ИРК", "ТЮМ", "РОС"},
		provinces: []string{"МО", "СП", "НС", "ЕК", "КД", "ВЛ", "ХБ", "ИР", "ТЮ", "РН"},
		syllables: []string{
			"МОС", "КВА", "НОВ", "ГОР", "ОД", "СК", "ПЕТ", "РО", "ВЛА", "ДИ",
			"КАЗ", "АНЬ", "ЕКА", "ТЕР", "ИН", "БУР", "СИБ", "ИР", "ВОЛ", "ГА",
			"ЯРО", "СЛА", "ВЛЬ", "СМО", "ЛЕН", "КУР", "ГАН", "ТВЕ", "РЖ", "ОМ",
		},
	},
	Greek: {
		regions:   []string{"ΑΤΤ", "ΜΑΚ", "ΘΕΣ", "ΠΕΛ", "ΚΡΗ", "ΗΠΕ", "ΙΟΝ", "ΑΙΓ", "ΣΤΕ", "ΘΡΑ"},
		provinces: []string{"ΑΘ", "ΘΕ", "ΠΑ", "ΗΡ", "ΛΑ", "ΙΩ", "ΚΕ", "ΡΟ", "ΧΑ", "ΚΑ"},
		syllables: []string{
			"ΑΘΗ", "ΝΑ", "ΘΕΣ", "ΣΑ", "ΛΟ", "ΝΙ", "ΚΗ", "ΠΑΤ", "ΡΑ", "ΚΡΗ",
			"ΤΗ", "ΡΟΔ", "ΟΣ", "ΚΕΡ", "ΚΥ", "ΜΥΚ", "ΟΝ", "ΣΠΑΡ", "ΔΕΛ", "ΦΟΙ",
			"ΟΛΥΜ", "ΠΙΑ", "ΝΑΥ", "ΠΛΙ", "ΒΟΛ", "ΙΘΑ", "ΚΟ", "ΖΑΚ", "ΥΝ", "ΘΟΣ",
		},
	},
	CJK: {
		regions:   []string{"東京", "大阪", "北海", "愛知", "福岡", "京都", "兵庫", "広島", "宮城", "新潟"},
		provinces: []string{"港", "中", "北", "南", "西", "東", "緑", "旭", "泉", "栄"},
		syllables: []string{
			"東", "京", "都", "大", "阪", "市", "北", "海", "道", "名",
			"古", "屋", "横", "浜", "川", "山", "田", "中", "村", "区",
			"町", "島", "崎", "原", "本", "松", "高", "岡", "長", "野",
		},
	},
}

// replacementFor picks the substitution rune Mutate writes over r:
// in-script (so variants stay realistic), never equal to r, and a
// letter rare enough in the syllable pools that a single substitution
// reliably breaks exact equality without collapsing two keys together.
func replacementFor(r rune) rune {
	switch {
	case r >= 0x0400 && r <= 0x04FF: // Cyrillic
		if r == 'Ж' {
			return 'Щ'
		}
		return 'Ж'
	case r >= 0x0370 && r <= 0x03FF: // Greek
		if r == 'Ξ' {
			return 'Ψ'
		}
		return 'Ξ'
	case r >= 0x2E80 && r <= 0x9FFF: // CJK
		if r == '鑫' {
			return '龍'
		}
		return '鑫'
	default: // ASCII and Latin-with-diacritics
		if r == 'x' || r == 'X' {
			return 'z'
		}
		return 'x'
	}
}
