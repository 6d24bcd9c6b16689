package value

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// FromJSON converts a JSON document to a model value — the syntactic
// bridging HADAS's communication level calls "mediating syntactic
// mismatches in data formats". JSON numbers become Int when integral and
// representable, Float otherwise; objects become Maps, arrays Lists.
func FromJSON(data []byte) (Value, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var raw any
	if err := dec.Decode(&raw); err != nil {
		return Null, fmt.Errorf("%w: invalid JSON: %v", ErrBadType, err)
	}
	// Reject trailing content after the first document.
	if dec.More() {
		return Null, fmt.Errorf("%w: trailing JSON content", ErrBadType)
	}
	return fromJSONValue(raw)
}

func fromJSONValue(raw any) (Value, error) {
	switch v := raw.(type) {
	case nil:
		return Null, nil
	case bool:
		return NewBool(v), nil
	case string:
		return NewString(v), nil
	case json.Number:
		s := v.String()
		if !strings.ContainsAny(s, ".eE") {
			if i, err := strconv.ParseInt(s, 10, 64); err == nil {
				return NewInt(i), nil
			}
		}
		f, err := v.Float64()
		if err != nil {
			return Null, fmt.Errorf("%w: number %q: %v", ErrBadType, s, err)
		}
		return NewFloat(f), nil
	case []any:
		out := make([]Value, len(v))
		for i, e := range v {
			ev, err := fromJSONValue(e)
			if err != nil {
				return Null, err
			}
			out[i] = ev
		}
		return NewList(out), nil
	case map[string]any:
		out := make(map[string]Value, len(v))
		for k, e := range v {
			ev, err := fromJSONValue(e)
			if err != nil {
				return Null, err
			}
			out[k] = ev
		}
		return NewMap(out), nil
	default:
		return Null, fmt.Errorf("%w: unsupported JSON node %T", ErrBadType, raw)
	}
}
