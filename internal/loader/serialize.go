package loader

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
)

// Marshal serializes a loaded image (the interchange format between the
// cmd/tld and cmd/sim executables, mirroring the paper's translated-code
// files).
func (im *Image) Marshal() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(im); err != nil {
		return nil, fmt.Errorf("loader: encode image: %w", err)
	}
	return buf.Bytes(), nil
}

// Unmarshal parses a serialized image.
func Unmarshal(data []byte) (*Image, error) {
	var im Image
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&im); err != nil {
		return nil, fmt.Errorf("loader: decode image: %w", err)
	}
	if err := im.Prog.Validate(); err != nil {
		return nil, fmt.Errorf("loader: decoded image: %w", err)
	}
	if err := checkMachine(im.Cfg, im.Schedule); err != nil {
		return nil, err
	}
	if im.Schedule != nil {
		if err := im.Schedule.check(im.Prog); err != nil {
			return nil, fmt.Errorf("loader: decoded image: %w", err)
		}
	}
	return &im, nil
}

// WriteFile serializes an image to a file.
func (im *Image) WriteFile(path string) error {
	data, err := im.Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ReadFile loads a serialized image from a file.
func ReadFile(path string) (*Image, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Unmarshal(data)
}
