package fault

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// LoadPlan reads a JSON fault plan from path; see ParsePlan for the format.
func LoadPlan(path string) (Plan, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Plan{}, fmt.Errorf("fault plan: %w", err)
	}
	p, err := ParsePlan(b)
	if err != nil {
		return Plan{}, fmt.Errorf("fault plan %s: %w", path, err)
	}
	return p, nil
}

// ParsePlan decodes one JSON fault plan and validates it. The format
// mirrors the Plan struct:
//
//	{
//	  "seed": 7,
//	  "link_drop_rate": 0.001,
//	  "corrupt_rate": 0,
//	  "outages": [{"link": "sw0.3->sw1.2", "start": 1000, "end": 3000}],
//	  "stash_failures": [{"switch": 0, "port": 1, "at": 5000}]
//	}
//
// An unknown field, or anything but white space after the plan object, is
// an error.
func ParsePlan(b []byte) (Plan, error) {
	var p Plan
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return Plan{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return Plan{}, fmt.Errorf("data after the plan object")
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}
