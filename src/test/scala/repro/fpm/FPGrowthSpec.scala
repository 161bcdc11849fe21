package repro.fpm

import repro.SparkSpec
import repro.core.PatternMiner

class FPGrowthSpec extends SparkSpec {

  private val small = Seq(
    Seq("a", "b", "c"),
    Seq("a", "b"),
    Seq("b", "c"),
    Seq("a", "c"),
    Seq("a"),
  )

  test("minCountFor uses inclusive ceil semantics") {
    assert(FPGrowth.minCountFor(0.2, 10) == 2L)
    assert(FPGrowth.minCountFor(0.25, 10) == 3L)
    assert(FPGrowth.minCountFor(1.0, 7) == 7L)
    assert(FPGrowth.minCountFor(0.5, 5) == 3L)
  }

  test("matches brute force on a fixed example") {
    val got = FPGrowth.mine(small, 0.4)
    val expected = BruteForce.mine(small, 0.4)
    assert(Itemsets.diff(got, expected).isEmpty)
  }

  test("support values are freq/total") {
    val got = FPGrowth.mine(small, 0.4)
    got.foreach(fi => assert(fi.support == fi.freq.toDouble / small.size))
    val a = got.find(_.items == Seq("a")).get
    assert(a.freq == 4L && a.support == 0.8)
  }

  test("items within an itemset are sorted") {
    val got = FPGrowth.mine(small, 0.4)
    got.foreach(fi => assert(fi.items == fi.items.sorted, fi.toString))
  }

  test("duplicate items within a transaction count once") {
    val tx = Seq(Seq("a", "a", "b"), Seq("a"), Seq("b", "b"))
    val got = FPGrowth.mine(tx, 0.5)
    val a = got.find(_.items == Seq("a")).get
    assert(a.freq == 2L)
    val b = got.find(_.items == Seq("b")).get
    assert(b.freq == 2L)
  }

  test("empty transactions lower support but are counted in the total") {
    val tx = Seq(Seq("a"), Seq.empty[String], Seq("a"), Seq.empty[String])
    val got = FPGrowth.mine(tx, 0.5)
    assert(got == Seq(FreqItemset(Seq("a"), 2L, 0.5)))
  }

  test("minSupport 1.0 keeps only universal items") {
    val tx = Seq(Seq("a", "b"), Seq("a"), Seq("a", "c"))
    val got = FPGrowth.mine(tx, 1.0)
    assert(got == Seq(FreqItemset(Seq("a"), 3L, 1.0)))
  }

  test("no frequent items yields an empty result") {
    val tx = Seq(Seq("a"), Seq("b"), Seq("c"), Seq("d"))
    assert(FPGrowth.mine(tx, 0.5).isEmpty)
  }

  test("invalid minSupport is rejected") {
    intercept[IllegalArgumentException](FPGrowth.mine(small, 0.0))
    intercept[IllegalArgumentException](FPGrowth.mine(small, 1.5))
    intercept[IllegalArgumentException](FPGrowth.mine(small, -0.1))
  }

  test("empty input is rejected") {
    intercept[IllegalArgumentException](FPGrowth.mine(Seq.empty, 0.5))
  }

  test("matches brute force on randomized inputs") {
    val rnd = new scala.util.Random(1234)
    (1 to 42).foreach { rep =>
      val alphabet = ('a' to ('a' + 1 + rnd.nextInt(7)).toChar).map(_.toString)
      val tx = Seq.fill(1 + rnd.nextInt(41)) {
        rnd.shuffle(alphabet).take(rnd.nextInt(alphabet.size + 1)).toSeq
      }
      val minSup = 0.1 + rnd.nextDouble() * 0.8
      val d = Itemsets.diff(FPGrowth.mine(tx, minSup), BruteForce.mine(tx, minSup))
      assert(d.isEmpty, s"rep $rep minSup $minSup: ${d.take(5)}")
    }
  }

  test("distributed == local == brute force on randomized inputs") {
    // Distributed: the grouped Spark pass of the pipeline, which mines each
    // group inside its own task; local: FPGrowth.mine on the driver.
    import spark.implicits._
    val rnd = new scala.util.Random(99)
    (1 to 12).foreach { rep =>
      val alphabet = ('a' to ('a' + 1 + rnd.nextInt(7)).toChar).map(_.toString)
      val groups = (1 to 1 + rnd.nextInt(3)).map { g =>
        s"g$g" -> Seq.fill(2 + rnd.nextInt(40)) {
          rnd.shuffle(alphabet).take(rnd.nextInt(alphabet.size + 1)).toSeq
        }
      }
      val minSup = 0.15 + rnd.nextDouble() * 0.7
      val df = groups.flatMap { case (g, tx) => tx.map(g -> _) }.toDF("cuisine", "items")
      val dist = PatternMiner.minePerCuisine(df, minSup)
      assert(dist.map(_.cuisine) == groups.map(_._1), s"rep $rep")
      dist.zip(groups).foreach { case (cp, (g, tx)) =>
        val brute = BruteForce.mine(tx, minSup)
        assert(cp.nRecipes == tx.size, s"rep $rep $g")
        assert(Itemsets.diff(cp.itemsets, brute).isEmpty, s"rep $rep $g minSup $minSup")
        val local = FPGrowth.mine(tx, minSup)
        assert(Itemsets.diff(local, brute).isEmpty, s"rep $rep $g (local) minSup $minSup")
      }
    }
  }

  test("matches Spark MLlib's FPGrowth on randomized inputs") {
    import org.apache.spark.ml.fpm.{FPGrowth => MLFPGrowth}
    import spark.implicits._
    val rnd = new scala.util.Random(2024)
    (1 to 5).foreach { rep =>
      val alphabet = ('a' to ('a' + 2 + rnd.nextInt(6)).toChar).map(_.toString)
      val tx = Seq.fill(5 + rnd.nextInt(40)) {
        rnd.shuffle(alphabet).take(rnd.nextInt(alphabet.size + 1)).toSeq
      }
      val minSup = 0.2 + rnd.nextDouble() * 0.5
      val ours = FPGrowth.mine(tx, minSup)
      val mlModel = new MLFPGrowth()
        .setItemsCol("items").setMinSupport(minSup).setMinConfidence(0.5)
        .fit(tx.toDF("items"))
      val theirs = mlModel.freqItemsets.collect().map { r =>
        val items = r.getSeq[String](0).sorted
        val freq = r.getLong(1)
        FreqItemset(items, freq, freq.toDouble / tx.size)
      }.toSeq
      assert(Itemsets.diff(ours, theirs).isEmpty, s"rep $rep minSup $minSup")
    }
  }
}
