package energy

import (
	"math"
	"testing"
)

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewMeterRejectsNegative(t *testing.T) {
	p := DefaultParams()
	p.ReadPerLineNJ = -1
	if _, err := NewMeter(p); err == nil {
		t.Fatal("expected error")
	}
}

func TestMeterAccumulates(t *testing.T) {
	m, err := NewMeter(Params{ReadPerLineNJ: 2, WritePulsePerNsNJ: 0.1, PerBitChangeNJ: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	m.Read()
	m.Read()
	m.Write(100, 10) // 0.1*100 + 0.5*10 = 15
	if m.Reads != 2 || m.Writes != 1 {
		t.Fatalf("counts %d/%d", m.Reads, m.Writes)
	}
	if math.Abs(m.ReadNJ-4) > 1e-12 {
		t.Fatalf("read energy %v", m.ReadNJ)
	}
	if math.Abs(m.WriteNJ-15) > 1e-12 {
		t.Fatalf("write energy %v", m.WriteNJ)
	}
	if total := m.ReadNJ + m.WriteNJ; math.Abs(total-19) > 1e-12 {
		t.Fatalf("total %v", total)
	}
}

func TestShorterPulseSavesEnergy(t *testing.T) {
	m, _ := NewMeter(DefaultParams())
	m.Write(658, 100)
	worst := m.WriteNJ
	m2, _ := NewMeter(DefaultParams())
	m2.Write(29, 100)
	if m2.WriteNJ >= worst {
		t.Fatal("a faster RESET pulse must cost less energy")
	}
}
